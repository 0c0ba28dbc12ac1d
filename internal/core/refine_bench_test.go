package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// BenchmarkColdRefine measures an LRF-CSVM refine the way a server runs one:
// on every core (Workers: 0), after the process has idled. Each refine follows
// an idle gap outside the timer, so a pass that hands a work unit to another
// worker pays for waking an idle core, which a refine in a hot loop never does
// (the hand-off probe in EXPERIMENTS.md). The collections have
// feedback-small's shape — 36 dimensions, categories of 50, ~60 entries per
// log vector — at 500, 1,000 and 2,000 images, the sizes at which a pass is
// one or two work units. p50-ns/op is the median refine, the figure to
// compare; ns/op is the mean.
func BenchmarkColdRefine(b *testing.B) {
	const idleGap = 2 * time.Millisecond
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			coll := makeDenseLogCollection(b, n/50, 50, 3*n, 29)
			ctx, err := coll.queryContext(7, 20).validated(true)
			if err != nil {
				b.Fatal(err)
			}
			ctx.Batch = NewCollectionBatch(coll.visual)
			refine := func() time.Duration {
				start := time.Now()
				got, err := RankTop(LRFCSVM{}, ctx, benchK)
				if err != nil || len(got) != benchK {
					b.Fatalf("ranked %d images, err %v", len(got), err)
				}
				return time.Since(start)
			}
			refine() // fills the scratch pool, as earlier refines on the engine's batch have
			took := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range took {
				b.StopTimer()
				time.Sleep(idleGap)
				b.StartTimer()
				took[i] = refine()
			}
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns/op")
		})
	}
}
