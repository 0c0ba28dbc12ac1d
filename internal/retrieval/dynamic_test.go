package retrieval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

// randomDescriptors draws descriptors compatible with testCollection's
// 3-dimensional clustered layout.
func randomDescriptors(rng *linalg.RNG, n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		c := rng.Intn(4)
		out[i] = linalg.Vector{
			float64(4*c) + rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
		}
	}
	return out
}

func TestAddImagesValidation(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddImages(context.Background(), nil); err == nil {
		t.Error("empty ingestion accepted")
	}
	if _, err := e.AddImages(context.Background(), []linalg.Vector{{1, 2}}); err == nil {
		t.Error("mismatched descriptor dimension accepted")
	}
	if e.NumImages() != len(visual) {
		t.Errorf("failed ingestions changed the collection to %d images", e.NumImages())
	}
}

// NewEngine refuses what AddImages refuses: a collection with one bad row — a
// features file, snapshot or journal written before ingestion was validated —
// must not start an engine that cannot answer.
func TestNewEngineRejectsBadDescriptors(t *testing.T) {
	good := linalg.Vector{2, 2}
	for _, tc := range []struct {
		name string
		bad  linalg.Vector
	}{
		{"NaN", linalg.Vector{math.NaN(), 1}},
		{"+Inf", linalg.Vector{math.Inf(1), 1}},
		{"-Inf", linalg.Vector{1, math.Inf(-1)}},
		{"overflows when squared", linalg.Vector{1e200, 1}},
		{"ragged", linalg.Vector{1, 0, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine([]linalg.Vector{{0, 1}, {1, 0}, tc.bad, good}, nil, Options{})
			if err == nil {
				e.Close()
				t.Fatal("collection accepted")
			}
			if !strings.Contains(err.Error(), "image 2") {
				t.Errorf("error %q does not name image 2", err)
			}
		})
	}
}

func TestAddImagesExtendsCollection(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := linalg.NewRNG(11)
	added := randomDescriptors(rng, 3)
	first, err := e.AddImages(context.Background(), added)
	if err != nil {
		t.Fatal(err)
	}
	if first != len(visual) {
		t.Errorf("first added index = %d, want %d", first, len(visual))
	}
	if e.NumImages() != len(visual)+3 {
		t.Errorf("collection size = %d, want %d", e.NumImages(), len(visual)+3)
	}
	if got := e.Collection().Epoch; got != 2 {
		t.Errorf("epoch = %d after one ingestion, want 2 (the initial collection is 1)", got)
	}
	// The new images are queryable and judgeable immediately.
	results, err := e.InitialQuery(context.Background(), first+2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Image != first+2 {
		t.Errorf("self-query top result = %d, want %d", results[0].Image, first+2)
	}
	s, err := e.StartSession(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Judge(first+1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refine(context.Background(), SchemeLRFCSVM, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The engine does not write into the caller's descriptor storage.
	added[0][0] = 1e9
	if res, err := e.InitialQuery(context.Background(), first, 3); err != nil || res[0].Image != first {
		t.Errorf("caller mutation reached the engine: %v %v", res, err)
	}
}

// TestGrownEngineMatchesRebuilt is the parity acceptance test of the
// live-collection path: an engine grown through interleaved ingestions and
// feedback commits must rank bit-identically to an engine rebuilt from
// scratch over a snapshot of the same collection and log.
func TestGrownEngineMatchesRebuilt(t *testing.T) {
	visual, labels, log := testCollection(t)
	grown, err := NewEngine(visual[:40], trimLog(t, log, 40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := linalg.NewRNG(21)

	// Interleave ingestion (restoring the full collection plus extras) with
	// committed feedback rounds.
	if _, err := grown.AddImages(context.Background(), visual[40:50]); err != nil {
		t.Fatal(err)
	}
	commitRound(t, grown, 5, labels)
	if _, err := grown.AddImages(context.Background(), visual[50:]); err != nil {
		t.Fatal(err)
	}
	commitRound(t, grown, 47, labels)
	if _, err := grown.AddImages(context.Background(), randomDescriptors(rng, 4)); err != nil {
		t.Fatal(err)
	}
	commitRound(t, grown, len(visual)+1, append(append([]int(nil), labels...), 0, 1, 2, 3))

	snapVisual, snapLog := grown.SnapshotWith(nil)
	rebuilt, err := NewEngine(snapVisual, snapLog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumImages() != grown.NumImages() || rebuilt.NumLogSessions() != grown.NumLogSessions() {
		t.Fatalf("snapshot mismatch: %d/%d images, %d/%d sessions",
			rebuilt.NumImages(), grown.NumImages(), rebuilt.NumLogSessions(), grown.NumLogSessions())
	}

	n := grown.NumImages()
	for _, query := range []int{0, 17, 42, 55, n - 1} {
		a, err := grown.InitialQuery(context.Background(), query, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.InitialQuery(context.Background(), query, n)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("initial query %d", query), a, b)

		for _, kind := range []SchemeKind{SchemeRFSVM, SchemeLRF2SVMs, SchemeLRFCSVM} {
			a := refineFull(t, grown, query, kind)
			b := refineFull(t, rebuilt, query, kind)
			compareResults(t, fmt.Sprintf("%s query %d", kind, query), a, b)
		}
	}
}

// TestGrownEngineMatchesRebuiltSampledGamma covers the regime the parity
// test above never reaches: the lazy RBF gamma re-estimate subsamples the
// collection once it exceeds its sample budget (64 points), and growth that
// crosses that threshold changes the subsample stride. The estimate must
// depend only on the point sequence — which is identical between a grown
// (copy-on-write) collection and one rebuilt from its snapshot — so the
// kernel-dependent schemes must still rank bit-identically.
func TestGrownEngineMatchesRebuiltSampledGamma(t *testing.T) {
	visual, labels, log := testCollection(t)
	grown, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := linalg.NewRNG(33)

	// Grow from 60 well past the 64-point sampling budget, interleaving
	// commits so the coupled log columns grow along the way.
	for batch := 0; batch < 4; batch++ {
		if _, err := grown.AddImages(context.Background(), randomDescriptors(rng, 28)); err != nil {
			t.Fatal(err)
		}
		commitRound(t, grown, 13*batch+2, labels)
	}
	n := grown.NumImages()
	if n < 160 {
		t.Fatalf("collection of %d images does not reach the sampled-gamma regime", n)
	}

	snapVisual, snapLog := grown.SnapshotWith(nil)
	rebuilt, err := NewEngine(snapVisual, snapLog, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, query := range []int{0, 31, 64, 65, n - 1} {
		a, err := grown.InitialQuery(context.Background(), query, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.InitialQuery(context.Background(), query, n)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("initial query %d", query), a, b)

		// SchemeRFSVM and SchemeLRFCSVM train on the estimated visual RBF
		// kernel, so any gamma divergence shows up as a ranking difference.
		for _, kind := range []SchemeKind{SchemeRFSVM, SchemeLRFCSVM} {
			a := refineFull(t, grown, query, kind)
			b := refineFull(t, rebuilt, query, kind)
			compareResults(t, fmt.Sprintf("%s query %d", kind, query), a, b)
		}
	}
}

// trimLog rebuilds a simulated log keeping only the sessions whose judgments
// all fall inside the first n images, re-targeted at a collection of n.
func trimLog(t *testing.T, log *feedbacklog.Log, n int) *feedbacklog.Log {
	t.Helper()
	out := feedbacklog.NewLog(n)
	for _, s := range log.Sessions() {
		ok := s.QueryImage < n
		for img := range s.Judgments {
			if img >= n {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if _, err := out.AddSession(feedbacklog.Session{
			QueryImage:     s.QueryImage,
			TargetCategory: s.TargetCategory,
			Judgments:      s.Judgments,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// commitRound runs one feedback round for the query and commits it: the top
// ten Euclidean neighbors are judged by ground-truth label (indexes past the
// labels slice count as their own singleton category).
func commitRound(t *testing.T, e *Engine, query int, labels []int) {
	t.Helper()
	s, err := e.StartSession(query)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.InitialQuery(context.Background(), query, 10)
	if err != nil {
		t.Fatal(err)
	}
	label := func(i int) int {
		if i < len(labels) {
			return labels[i]
		}
		return -1 - i
	}
	for _, r := range results {
		if err := s.Judge(r.Image, label(r.Image) == label(query)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Refine(context.Background(), SchemeLRFCSVM, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// refineFull runs one judged-but-uncommitted refinement over the whole
// collection and returns the full ranking.
func refineFull(t *testing.T, e *Engine, query int, kind SchemeKind) []Result {
	t.Helper()
	s, err := e.StartSession(query)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.InitialQuery(context.Background(), query, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := s.Judge(r.Image, i%3 != 2); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Refine(context.Background(), kind, e.NumImages())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func compareResults(t *testing.T, what string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: rank %d differs: grown %+v, rebuilt %+v", what, i, a[i], b[i])
		}
	}
}

// TestConcurrentIngestionAndQueries is the live-collection stress test: it
// interleaves image ingestion, initial queries, refinement rounds and log
// commits on one engine from many goroutines. Run under -race it checks the
// epoch/copy-on-write discipline of the whole stack (DenseSet growth, batch
// caches, incremental log columns, session state).
func TestConcurrentIngestionAndQueries(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Ingesters keep growing the collection in small batches.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 6; i++ {
				if _, err := e.AddImages(context.Background(), randomDescriptors(rng, 1+rng.Intn(3))); err != nil {
					report(fmt.Errorf("ingest: %w", err))
					return
				}
			}
		}(100 + uint64(g))
	}

	// Queriers issue initial queries against whatever collection size they
	// observe.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 15; i++ {
				n := e.NumImages()
				results, err := e.InitialQuery(context.Background(), rng.Intn(n), 10)
				if err != nil {
					report(fmt.Errorf("query: %w", err))
					return
				}
				if len(results) != 10 {
					report(fmt.Errorf("query returned %d results", len(results)))
					return
				}
			}
		}(200 + uint64(g))
	}

	// Feedback workers run full judge/refine/commit rounds, alternating
	// schemes so both the visual-only and the coupled paths are exercised.
	schemes := []SchemeKind{SchemeRFSVM, SchemeLRFCSVM, SchemeLRF2SVMs}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(worker int, seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 4; i++ {
				q := rng.Intn(e.NumImages())
				s, err := e.StartSession(q)
				if err != nil {
					report(fmt.Errorf("start: %w", err))
					return
				}
				initial, err := e.InitialQuery(context.Background(), q, 8)
				if err != nil {
					report(fmt.Errorf("initial: %w", err))
					return
				}
				for j, r := range initial {
					if err := s.Judge(r.Image, j%2 == 0); err != nil {
						report(fmt.Errorf("judge: %w", err))
						return
					}
				}
				if _, err := s.Refine(context.Background(), schemes[(worker+i)%len(schemes)], 8); err != nil {
					report(fmt.Errorf("refine: %w", err))
					return
				}
				if err := s.Commit(context.Background()); err != nil {
					report(fmt.Errorf("commit: %w", err))
					return
				}
			}
		}(g, 300+uint64(g))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Everything committed must have landed in the log, and the collection
	// must have grown by every ingested batch.
	if e.NumImages() <= len(visual) {
		t.Errorf("collection did not grow: %d images", e.NumImages())
	}
	if got, want := e.NumLogSessions(), 25+3*4; got != want {
		t.Errorf("log sessions = %d, want %d", got, want)
	}
}
