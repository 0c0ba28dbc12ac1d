package core

import (
	"fmt"
	"slices"
	"testing"

	"lrfcsvm/internal/sparse"
)

// TestRankTopShardedParity is the acceptance parity test of the sharded
// streaming query path: for all four schemes of the paper's comparison, for
// every shard count in {1, 2, 7} and worker count in {1, 4}, RankTop must
// return exactly the indices and bit-identical scores of the pre-refactor
// full-sort path (full Rank on a single-shard batch followed by a stable
// descending argsort).
func TestRankTopShardedParity(t *testing.T) {
	coll := makeCollection(t, 4, 14, 40, 0, 5)
	n := len(coll.visual)
	schemes := []TopKRanker{Euclidean{}, RFSVM{}, LRF2SVMs{}, LRFCSVM{}}

	for _, scheme := range schemes {
		// Reference: the pre-refactor path — every score materialized on a
		// single-shard batch, ranked by full stable argsort.
		refCtx := coll.queryContext(3, 10)
		refCtx.Workers = 1
		refCtx.Batch = NewShardedCollectionBatch(coll.visual, n)
		refScores, err := scheme.Rank(refCtx)
		if err != nil {
			t.Fatalf("%s reference Rank: %v", scheme.Name(), err)
		}

		for _, shards := range []int{1, 2, 7} {
			shardSize := (n + shards - 1) / shards
			batch := NewShardedCollectionBatch(coll.visual, shardSize)
			if got := batch.VisualSet().NumShards(); got != shards {
				t.Fatalf("shard size %d over %d images yields %d shards, want %d", shardSize, n, got, shards)
			}
			for _, workers := range []int{1, 4} {
				for _, k := range []int{1, 10, n} {
					name := fmt.Sprintf("%s shards=%d workers=%d k=%d", scheme.Name(), shards, workers, k)
					wantIdx := argsortTopK(refScores, k)
					ctx := coll.queryContext(3, 10)
					ctx.Workers = workers
					ctx.Batch = batch
					got, err := scheme.RankTop(ctx, k)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(wantIdx) {
						t.Fatalf("%s: %d results, want %d", name, len(got), len(wantIdx))
					}
					for i, r := range got {
						if r.Index != wantIdx[i] {
							t.Fatalf("%s: result %d is image %d, want %d", name, i, r.Index, wantIdx[i])
						}
						if r.Score != refScores[r.Index] {
							t.Fatalf("%s: result %d score %v, want bit-identical %v", name, i, r.Score, refScores[r.Index])
						}
					}
				}
			}
		}
	}
}

// TestRankTopFallback verifies core.RankTop on a scheme without a streaming
// path (the ablation-only selection variant) falls back to Rank + TopK with
// identical results.
func TestRankTopFallback(t *testing.T) {
	coll := makeCollection(t, 3, 10, 30, 0, 9)
	scheme := LRFCSVMWithSelection{Strategy: SelectMaxMin}
	if _, ok := Scheme(scheme).(TopKRanker); ok {
		t.Fatal("test premise broken: LRFCSVMWithSelection grew a RankTop; pick another fallback scheme")
	}
	ctx := coll.queryContext(2, 8)
	ctx.Workers = 1
	scores, err := scheme.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := argsortTopK(scores, 7)
	ctx2 := coll.queryContext(2, 8)
	ctx2.Workers = 1
	got, err := RankTop(scheme, ctx2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Index != want[i] || r.Score != scores[want[i]] {
			t.Fatalf("result %d = %+v, want index %d score %v", i, r, want[i], scores[want[i]])
		}
	}
}

// TestRankTopEdgeCases covers k <= 0 and k beyond the collection.
func TestRankTopEdgeCases(t *testing.T) {
	coll := makeCollection(t, 2, 6, 20, 0, 3)
	ctx := coll.queryContext(1, 6)
	if got, err := (Euclidean{}).RankTop(ctx, 0); err != nil || len(got) != 0 {
		t.Fatalf("k=0: got %d results, err %v", len(got), err)
	}
	if got, err := (Euclidean{}).RankTop(ctx, -3); err != nil || len(got) != 0 {
		t.Fatalf("k<0: got %d results, err %v", len(got), err)
	}
	got, err := (Euclidean{}).RankTop(ctx, 10*len(coll.visual))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(coll.visual) {
		t.Fatalf("k>n: got %d results, want %d", len(got), len(coll.visual))
	}
	// The query itself must rank first under Euclidean similarity.
	if got[0].Index != ctx.Query {
		t.Fatalf("top result is %d, want the query %d", got[0].Index, ctx.Query)
	}
}

// TestStreamRankingAllocations pins the allocation contract of the streaming
// top-K path, the one property of it no parity test sees: with a recycled
// result buffer a pass takes its scratch from the pool and allocates nothing
// the size of the collection, where materializing every score costs 8 bytes
// per image and per lane.
func TestStreamRankingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so lanes are reallocated per range")
	}
	const k = 20

	// The initial query, over rotating probes as distinct users send them:
	// one small allocation per pass.
	ctx, _, _ := selectBenchProblem(t, 2000)
	ctx.Workers = 1 // the parallel path adds its goroutines
	buf := make([]Ranked, 0, k)
	probe := 0
	allocs := testing.AllocsPerRun(50, func() {
		probe = (probe + 331) % ctx.NumImages()
		ctx.Query = probe
		got, err := Euclidean{}.RankTopAppend(ctx, k, buf[:0])
		if err != nil || len(got) != k {
			t.Fatalf("ranked %d images, err %v", len(got), err)
		}
		buf = got
	})
	if allocs > 1 {
		t.Errorf("Euclidean.RankTopAppend allocates %.0f times per query with a recycled buffer, want at most 1", allocs)
	}

	// The two-SVM scoring pass. Its allocation count is the kernels' ≈1 KB
	// of temporaries per range (ROADMAP item 1), so what is pinned is that
	// bytes per pass do not grow with the collection — on the cold case: the
	// query rotates and the log vectors change slice identity every pass (a
	// commit produces a new slice), so nothing a pass needs was left behind
	// by the one before. A distance row kept per query cost 8 bytes per image
	// here and a point wrapper per log vector 16.
	bytesPerOp := func(n int) int64 {
		ctx, _, _ := selectBenchProblem(t, n)
		ctx.Workers = 1
		pre, err := LRF2SVMs{}.Pretrain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		logs := [2][]*sparse.Vector{ctx.LogVectors, slices.Clone(ctx.LogVectors)}
		buf := make([]Ranked, 0, k)
		pass := 0
		return steadyBytesPerPass(func() {
			pass++
			ctx.Query = pass * 331 % n
			ctx.LogVectors = logs[pass%2]
			got, err := pre.RankTopAppend(ctx, k, buf[:0])
			if err != nil || len(got) != k {
				t.Fatalf("ranked %d images, err %v", len(got), err)
			}
			buf = got
		})
	}
	requireBytesDoNotGrowWithN(t, "Pretrained2SVMs.RankTopAppend", bytesPerOp)
}
