package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// TestScanRangesCoversCollection verifies the driver's exhaustive source
// (scanRanges over the zero CandidateSet) covers every image exactly once and
// never hands out a range crossing a shard boundary, for shard sizes and
// worker counts around the collection size.
func TestScanRangesCoversCollection(t *testing.T) {
	rng := linalg.NewRNG(3)
	for _, n := range []int{0, 1, 7, 100} {
		vs := make([]linalg.Vector, n)
		for i := range vs {
			vs[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
		}
		for _, shardSize := range []int{1, 3, 8, 64, 1000} {
			batch := NewShardedCollectionBatch(vs, shardSize)
			for _, workers := range []int{1, 2, 3, 8, 200} {
				seen := make([]int, n)
				var mu sync.Mutex
				ctx := &QueryContext{Visual: vs, Batch: batch, Workers: workers, Ctx: context.Background()}
				_, err := scanScores(ctx, batch, func(_ *rankScratch, sub *kernel.DenseSet, lo int, dst []float64) {
					if sub.Len() > shardSize {
						t.Errorf("range of %d rows exceeds shard size %d", sub.Len(), shardSize)
					}
					if lo/shardSize != (lo+sub.Len()-1)/shardSize {
						t.Errorf("range [%d,%d) crosses a shard boundary (size %d)", lo, lo+sub.Len(), shardSize)
					}
					mu.Lock()
					defer mu.Unlock()
					for i := lo; i < lo+sub.Len(); i++ {
						seen[i]++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d shardSize=%d workers=%d: element %d covered %d times", n, shardSize, workers, i, c)
					}
				}
			}
		}
	}
}

// TestLogWeightsSharedByScanWorkers: a linear log model's weight vector is
// built once, by whichever scan worker first asks, and every worker reads
// that one build. A fresh model is scored over 6 one-shard units on 3
// workers (the race job runs this under -race); every range sees the same
// weights and every row gets the reference's log decision, bit for bit.
func TestLogWeightsSharedByScanWorkers(t *testing.T) {
	c := makeCollection(t, 3, 14, 40, 0.1, 5)
	ctx := c.queryContext(0, 8)
	ctx.Batch, ctx.Workers = NewShardedCollectionBatch(ctx.Visual, 7), 3
	ctx.LogIndex = logIndexOf(ctx)
	var labels []float64
	var pts []kernel.Point
	for _, ex := range ctx.Labeled {
		labels = append(labels, ex.Label)
		pts = append(pts, kernel.NewSparse(c.logVectors[ex.Index]))
	}
	lm, err := refTrain(pts, labels, costsOf(len(labels), svmCost), kernel.Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if p := newScanPass(ctx, ctx.Batch.VisualSet(), CandidateSet{}, nil, nil, nil); p.units < 3 || p.workers != 3 {
		t.Fatalf("the pass has %d units on %d workers, want at least 3 on 3", p.units, p.workers)
	}
	var mu sync.Mutex
	builds := map[*sparse.Entry]bool{}
	scores, err := scanScores(ctx, ctx.Batch, func(sc *rankScratch, sub *kernel.DenseSet, lo int, dst []float64) {
		copy(dst, logDecisions(sc, lm, ctx.LogIndex, lo, sub.Len()))
		w, _ := lm.LinearWeights()
		mu.Lock()
		defer mu.Unlock()
		builds[unsafe.SliceData(w.Entries)] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := lm.LinearWeights(); len(w.Entries) == 0 {
		t.Fatal("the model carries no session")
	}
	if len(builds) != 1 {
		t.Errorf("the scan workers read %d builds of the weights, want 1", len(builds))
	}
	for i, got := range scores {
		if want := logDecision(lm, c.logVectors[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("image %d: log decision %v, reference %v", i, got, want)
		}
	}
}

// TestSharedCollectionBatchConcurrentRank exercises one CollectionBatch
// shared by concurrent rankings of different queries (the engine's serving
// pattern) under the race detector: the batch holds nothing per query, so
// every concurrent score row is bit-identical to the serial ranking of the
// same query, and every arena is back in the pool afterwards.
func TestSharedCollectionBatchConcurrentRank(t *testing.T) {
	coll := makeCollection(t, 3, 10, 30, 0, 9)
	batch := NewCollectionBatch(coll.visual)
	rank := func(query, workers int) ([]float64, error) {
		ctx := coll.queryContext(query, 8)
		ctx.Batch = batch
		ctx.Workers = workers
		return (LRF2SVMs{}).Rank(ctx)
	}
	const queries = 5
	serial := make([][]float64, queries)
	for q := range serial {
		var err error
		if serial[q], err = rank(q, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(query int) {
			defer wg.Done()
			got, err := rank(query, 2)
			if err != nil {
				t.Error(err)
				return
			}
			for i, want := range serial[query] {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Errorf("query %d: concurrent score[%d] = %v, serial %v", query, i, got[i], want)
					return
				}
			}
		}(g % queries)
	}
	wg.Wait()
	if got := batch.leased.Load(); got != 0 {
		t.Fatalf("%d scratch arenas still leased after the rankings", got)
	}
}

// TestCollectionBatchReused pins which collection a context names: a Visual
// beside an attached batch that is not the batch's collection — another
// length, or the same length with other data in a boundary row — is refused
// by every scheme instead of being ranked against descriptors it does not
// hold. (An attached batch alone, with an equal copy beside it, and a Visual
// alone rank as the reference does: TestRefineMatchesReference.)
func TestCollectionBatchReused(t *testing.T) {
	coll := makeCollection(t, 3, 8, 20, 0, 13)
	ctx := coll.queryContext(1, 6)
	ctx.Batch = NewCollectionBatch(coll.visual)
	clone := func() []linalg.Vector {
		out := make([]linalg.Vector, len(coll.visual))
		for i, v := range coll.visual {
			out[i] = append(linalg.Vector(nil), v...)
		}
		return out
	}
	refused := func(what string, visual []linalg.Vector) {
		t.Helper()
		ctx.Visual = visual
		for _, scheme := range []Scheme{Euclidean{}, RFSVM{}, LRF2SVMs{}, LRFCSVM{}} {
			if _, err := scheme.Rank(ctx); err == nil {
				t.Errorf("%s: %s ranked a collection its batch does not hold", what, scheme.Name())
			}
		}
	}
	refused("a shorter collection", coll.visual[:4])
	refused("a longer collection", append(clone(), coll.visual[0]))
	for _, row := range []int{0, len(coll.visual) - 1} {
		other := clone()
		other[row][0]++
		refused(fmt.Sprintf("the same length with another row %d", row), other)
	}
}

// TestCollectionBatchGrowRejectsDifferentPrefix: Grow takes the whole
// collection and appends what follows the batch's own, so a slice that does
// not start with it — shorter, or with another first or last prefix row — is
// refused, and an equal copy grows like the original.
func TestCollectionBatchGrowRejectsDifferentPrefix(t *testing.T) {
	col := makeCollection(t, 2, 6, 10, 0, 5)
	const prefix = 8
	b := NewCollectionBatch(col.visual[:prefix:prefix])
	clone := func() []linalg.Vector {
		out := make([]linalg.Vector, len(col.visual))
		for i, v := range col.visual {
			out[i] = append(linalg.Vector(nil), v...)
		}
		return out
	}
	grown := b.Grow(clone())
	if grown.Len() != len(col.visual) {
		t.Fatalf("grown onto an equal copy: %d images, want %d", grown.Len(), len(col.visual))
	}
	for i, v := range col.visual {
		if !slices.Equal(grown.VisualSet().Point(i), kernel.Dense(v)) {
			t.Fatalf("grown row %d = %v, want %v", i, grown.VisualSet().Point(i), v)
		}
	}
	if same := b.Grow(col.visual[:prefix]); same.Len() != prefix {
		t.Errorf("growing by nothing: %d images, want %d", same.Len(), prefix)
	}

	refused := func(what string, visual []linalg.Vector) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("growing onto %s did not panic", what)
			}
		}()
		b.Grow(visual)
	}
	refused("a shorter collection", col.visual[:prefix-1])
	for _, row := range []int{0, prefix - 1} {
		other := clone()
		other[row][0]++
		refused(fmt.Sprintf("a prefix with another row %d", row), other)
	}
}
