package retrieval_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// TestRefineAllocations pins what one Session.Refine allocates, bytes and
// objects, for each SVM scheme on a 36-dimension collection of 500 images
// with 1,500 log sessions and of 20,000 images with 2,000: a refine trains in
// a training arena pooled on the collection batch, beside its scoring
// arenas, so it allocates its answer and a few fixed headers, whatever the
// collection and the log. Before the arena a refine allocated (500 / 20,000
// images):
//
//	RF-SVM     14,803 / 14,800 B in 46 / 46 objects
//	LRF-2SVMs  60,374 / 30,992 B in 63 / 63 objects
//	LRF-CSVM  149,671 / 88,608 B in 153 / 153 objects
//
// and now, at either shape:
//
//	RF-SVM     1,160 B in  6 objects
//	LRF-2SVMs  1,320 B in  8 objects
//	LRF-CSVM   1,544 B in 10 objects
//
// The bounds are the first figures, or 20 KB and 60 objects where that is
// lower.
// The refines run on one P, as testing.AllocsPerRun runs its function: a
// pass on more workers also allocates their goroutines.
func TestRefineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so a refine reallocates them")
	}
	bounds := []struct {
		kind           retrieval.SchemeKind
		bytes, objects float64
	}{
		{retrieval.SchemeRFSVM, 14800, 46},
		{retrieval.SchemeLRF2SVMs, 20 << 10, 60},
		{retrieval.SchemeLRFCSVM, 20 << 10, 60},
	}
	for _, shape := range []struct{ images, sessions int }{{500, 1500}, {20000, 2000}} {
		rng := linalg.NewRNG(uint64(shape.images))
		e, err := retrieval.NewEngine(categoryRows(rng, shape.images, 36), sessionsLog(t, rng, shape.images, shape.sessions), retrieval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := judgedSession(t, e, rng, shape.images)
		for _, b := range bounds {
			bytes, objects := perRefine(func() {
				if got, err := s.Refine(context.Background(), b.kind, 20); err != nil || len(got) != 20 {
					t.Fatalf("%s ranked %d images, err %v", b.kind, len(got), err)
				}
			})
			name := fmt.Sprintf("%s at %d images, %d sessions", b.kind, shape.images, shape.sessions)
			t.Logf("%s: %.0f B in %.1f objects per refine", name, bytes, objects)
			if bytes > b.bytes || objects > b.objects {
				t.Errorf("%s allocates %.0f B in %.1f objects per refine, want at most %.0f B in %.0f", name, bytes, objects, b.bytes, b.objects)
			}
		}
	}
}

// perRefine runs refine once to fill the pools, then returns the bytes and
// objects one more run allocates, averaged over 50, on one P.
func perRefine(refine func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	refine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		refine()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// sessionsLog is a log of the given number of sessions, each judging a page.
func sessionsLog(tb testing.TB, rng *linalg.RNG, n, sessions int) *feedbacklog.Log {
	log := feedbacklog.NewLog(n)
	for range sessions {
		q := rng.Intn(n)
		judged := make(map[int]feedbacklog.Judgment, 20)
		for img, relevant := range page(rng, n, q) {
			judged[img] = feedbacklog.Irrelevant
			if relevant {
				judged[img] = feedbacklog.Relevant
			}
		}
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: q, Judgments: judged}); err != nil {
			tb.Fatal(err)
		}
	}
	return log
}
