package retrieval_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// BenchmarkRefineAfterCommit measures where a committed session's cost lands,
// in the ingest-commit workload's loop: each op commits one 20-image session
// and then refines a probe session with lrf-2svms, so every refine meets a
// log one session longer than the last. The collections hold 5,000 and
// 50,000 images of 16 dimensions in categories of 100, with a log of n/25
// sessions of 20 judgments. A commit extends the log index by its session
// before it publishes the epoch that holds it, so the log's cost is the
// commit's — the session's row appended to the log in place (amortized), the
// pages of the index its judgments fall in and the page list, the epoch —
// and the refine reads a finished index. commit-ns/op and refine-ns/op
// report the two halves of an op; B/op is both. The probe's first refine
// builds the first index, before the timer.
func BenchmarkRefineAfterCommit(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			rng := linalg.NewRNG(uint64(n))
			e, err := retrieval.NewEngine(categoryRows(rng, n, 16), categoryLog(b, rng, n), retrieval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			probe := judgedSession(b, e, rng, n)
			if _, err := probe.Refine(ctx, retrieval.SchemeLRF2SVMs, 20); err != nil {
				b.Fatal(err)
			}
			var commits, refines time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := judgedSession(b, e, rng, n)
				start := time.Now()
				if err := s.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				committed := time.Now()
				if _, err := probe.Refine(ctx, retrieval.SchemeLRF2SVMs, 20); err != nil {
					b.Fatal(err)
				}
				commits, refines = commits+committed.Sub(start), refines+time.Since(committed)
			}
			b.ReportMetric(float64(commits.Nanoseconds())/float64(b.N), "commit-ns/op")
			b.ReportMetric(float64(refines.Nanoseconds())/float64(b.N), "refine-ns/op")
		})
	}
}

// perCategory is how many consecutive images share a category.
const perCategory = 100

// categoryRows draws n rows of dim dimensions around one centre per
// category.
func categoryRows(rng *linalg.RNG, n, dim int) []linalg.Vector {
	centres := make([]linalg.Vector, (n+perCategory-1)/perCategory)
	for c := range centres {
		centres[c] = make(linalg.Vector, dim)
		for j := range centres[c] {
			centres[c][j] = rng.Normal(0, 1)
		}
	}
	rows := make([]linalg.Vector, n)
	for i := range rows {
		rows[i] = make(linalg.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = centres[i/perCategory][j] + rng.Normal(0, 1.6)
		}
	}
	return rows
}

// page draws the 20 images a session around query q judges: half from its
// category, half anywhere.
func page(rng *linalg.RNG, n, q int) map[int]bool {
	judged := make(map[int]bool, 20)
	for len(judged) < 20 {
		img := rng.Intn(n)
		if len(judged) < 10 {
			img = min(q/perCategory*perCategory+rng.Intn(perCategory), n-1)
		}
		judged[img] = img/perCategory == q/perCategory
	}
	return judged
}

// categoryLog is a log of n/25 sessions, each judging a page.
func categoryLog(tb testing.TB, rng *linalg.RNG, n int) *feedbacklog.Log {
	return sessionsLog(tb, rng, n, n/25)
}

// judgedSession starts a session on a random query and judges a page in it.
func judgedSession(tb testing.TB, e *retrieval.Engine, rng *linalg.RNG, n int) *retrieval.Session {
	q := rng.Intn(n)
	s, err := e.StartSession(q)
	if err != nil {
		tb.Fatal(err)
	}
	for img, relevant := range page(rng, n, q) {
		if err := s.Judge(img, relevant); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}
