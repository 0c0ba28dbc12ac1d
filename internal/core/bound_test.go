package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/svm"
)

// skipCounter is the top-K pass's kernel.Bound with the rows the tile driver
// skips counted.
type skipCounter struct {
	kernel.Bound
	skipped *atomic.Int64
}

func (c skipCounter) Scored(lo, n int, kept uint64) {
	c.skipped.Add(int64(n - bits.OnesCount64(kept)))
	c.Bound.Scored(lo, n, kept)
}

// plantedScorer is RF-SVM's retrieval scorer with a lane added where the
// coupled scorer adds the log decisions, (visual + add) − prior, so a test
// can plant scores; skipped counts the rows its top-K passes skip.
func plantedScorer(q linalg.Vector, model *svm.Model, add []float64, skipped *atomic.Int64) rangeScorer {
	return func(sc *rankScratch, sub *kernel.DenseSet, lo int, dst []float64) {
		b := sc.cut.bound
		if b != nil {
			b = skipCounter{b, skipped}
		}
		model.DecisionBounded(sub, dst, add[lo:lo+len(dst)], sc.prior(q, sub.Len()), kernel.PositiveSums{}, &sc.tiles, b)
	}
}

// plant returns the add lane value under which a row of visual decision v and
// prior p scores exactly target, (v + a) − p, by bisection (the score is
// monotone in a); false when no value lands on it.
func plant(v, p, target float64) (float64, bool) {
	lo, hi := target+p-v-1, target+p-v+1
	for range 200 {
		if mid := lo + (hi-lo)/2; (v+mid)-p < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	for a := lo; a <= hi; a = math.Nextafter(a, math.Inf(1)) {
		if (v+a)-p == target {
			return a, true
		}
	}
	return 0, false
}

// TestTopKPassMatchesScanScores holds the bounded top-K pass — an RBF model
// with the query prior, the floor shared by the workers — to its definition
// bit for bit: every score materialized (scanScores, which never bounds),
// then TopK, or the candidates' top k. For k ∈ {1, 20, 100, n} it plants
// rows at the k-th score, on either side of the k-th row's index, and one
// ulp above and below it, and runs every shard size of {1, 7, default} on
// 1, 2 and 5 workers, over every image and over candidate lists. The
// collection spans two default shards, so the default shard size runs on
// two workers too.
func TestTopKPassMatchesScanScores(t *testing.T) {
	n := kernel.DefaultShardSize + 52
	coll := makeCollection(t, n/100, 100, 10, 0, 7)
	ctx := coll.queryContext(5, 20)
	batch := NewCollectionBatch(coll.visual)
	ctx.Batch = batch
	model, err := RFSVM{}.train(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(model.Coefficients, func(c float64) bool { return c < 0 }) || !slices.ContainsFunc(model.Coefficients, func(c float64) bool { return c > 0 }) {
		t.Fatalf("the model's coefficients %v are not of both signs", model.Coefficients)
	}
	q := batch.queryVector(ctx)
	visual, err := scanScores(ctx, batch, func(sc *rankScratch, sub *kernel.DenseSet, _ int, dst []float64) {
		model.DecisionBounded(sub, dst, nil, kernel.Prior{}, kernel.PositiveSums{}, &sc.tiles, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := scanScores(ctx, batch, func(_ *rankScratch, sub *kernel.DenseSet, _ int, dst []float64) {
		rangeDistances(q, sub, dst)
		for i, d := range dst {
			dst[i] = float64(queryPriorWeight * d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := linalg.NewRNG(44)
	var skipped atomic.Int64
	for _, k := range []int{1, 20, 100, n} {
		add := make([]float64, n)
		for i := range add {
			add[i] = rng.Normal(0, 0.1)
		}
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = (visual[i] + add[i]) - prior[i]
		}
		top := TopK(scores, k)
		kth := scores[top[k-1]]
		// Plant rows from below the top k (the bottom half when k = n) at
		// the k-th score, one before the k-th row's index and one after it,
		// and one ulp either side of it.
		above := top[:min(k, n/2)]
		planted := map[int]float64{}
		for _, target := range []float64{kth, kth, math.Nextafter(kth, math.Inf(1)), math.Nextafter(kth, math.Inf(-1))} {
			for tries := 0; ; tries++ {
				if tries > 1000 {
					t.Fatalf("k=%d: no row can be planted at %v", k, target)
				}
				r := rng.Intn(n)
				if _, taken := planted[r]; taken || slices.Contains(above, r) || target == kth && len(planted) < 2 && (r < top[k-1]) != (len(planted) == 0) {
					continue
				}
				if a, ok := plant(visual[r], prior[r], target); ok {
					add[r], planted[r] = a, target
					break
				}
			}
		}
		scores, err := scanScores(ctx, batch, plantedScorer(q, model, add, &skipped))
		if err != nil {
			t.Fatal(err)
		}
		for r, target := range planted {
			if scores[r] != target {
				t.Fatalf("k=%d: row %d planted at %v scores %v", k, r, target, scores[r])
			}
		}
		wantAll := make([]Ranked, 0, k)
		for _, i := range TopK(scores, k) {
			wantAll = append(wantAll, Ranked{Index: i, Score: scores[i]})
		}
		cands := randomCandidates(rng, n)
		wantCands := subsetTopK(scores, cands, n, k)
		for _, shardSize := range []int{1, 7, kernel.DefaultShardSize} {
			sharded := NewShardedCollectionBatch(coll.visual, shardSize)
			for _, workers := range []int{1, 2, 5} {
				for _, c := range []CandidateSet{{}, cands} {
					name := fmt.Sprintf("k=%d shard=%d workers=%d lists=%d", k, shardSize, workers, len(c.Lists))
					pass := *ctx
					pass.Batch, pass.Workers = sharded, workers
					got, err := rankTopRanges(&pass, sharded, c, k, nil, plantedScorer(sharded.queryVector(&pass), model, add, &skipped), seedBlock{})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := wantAll
					if c.Lists != nil {
						want = wantCands
					}
					if !slices.EqualFunc(got, want, func(a, b Ranked) bool {
						return a.Index == b.Index && math.Float64bits(a.Score) == math.Float64bits(b.Score)
					}) {
						t.Fatalf("%s: top %d = %v, oracle %v", name, k, got, want)
					}
					if l := sharded.leased.Load(); l != 0 {
						t.Fatalf("%s: %d scratch arenas not returned", name, l)
					}
				}
			}
		}
	}
	if skipped.Load() == 0 {
		t.Fatal("no top-K pass skipped a row: the bound is never exercised")
	}
	t.Logf("the bound skipped %d rows over the passes", skipped.Load())
}
