package core

import (
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/svm"
)

// This file benchmarks the steady-state ranking path in isolation — the
// stage between a trained model and a bounded result list — comparing the
// pre-refactor pattern (one monolithic flat store, every score materialized,
// full stable argsort, per-pass transient buffers) against the streaming
// per-shard top-K selection with pooled scratch memory. Models are trained
// once outside the timed loop, so allocs/op and ns/op measure exactly the
// per-query scoring hot path. EXPERIMENTS.md records the numbers.

const benchK = 20

// benchSetup builds the CI20-sized collection plus two batches over it: the
// monolithic single-shard layout the pre-refactor code used, and the sharded
// layout of the streaming path.
func benchSetup(b *testing.B) (coll *syntheticCollection, mono, sharded *CollectionBatch) {
	b.Helper()
	t := &testing.T{}
	coll = makeCollection(t, 8, 24, 60, 0, 5)
	if len(coll.visual) == 0 {
		b.Fatal("empty benchmark collection")
	}
	mono = NewShardedCollectionBatch(coll.visual, len(coll.visual))
	sharded = NewShardedCollectionBatch(coll.visual, 64)
	return coll, mono, sharded
}

// fullSortSelect replicates the pre-refactor selection: a full stable
// descending argsort of every score, truncated to k and materialized as
// results.
func fullSortSelect(scores []float64, k int) []Ranked {
	order := linalg.ArgsortDesc(scores)
	if k > len(order) {
		k = len(order)
	}
	out := make([]Ranked, k)
	for i := 0; i < k; i++ {
		out[i] = Ranked{Index: order[i], Score: scores[order[i]]}
	}
	return out
}

// oldRankVisual replicates the pre-refactor serial visual scoring pass over
// the monolithic store: one freshly allocated score per image.
func oldRankVisual(b *CollectionBatch, model *svm.Model) []float64 {
	set := b.VisualSet()
	scores := make([]float64, set.Len())
	model.DecisionSet(set.Shard(0), scores, nil)
	return scores
}

// oldRankCoupled replicates the pre-refactor serial coupled scoring pass:
// fresh score and log-score slices plus the transient kernel buffer
// DecisionBatch allocates when given none.
func oldRankCoupled(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model) []float64 {
	set := b.VisualSet()
	logPts := b.logPoints(ctx.LogVectors)
	n := set.Len()
	scores := make([]float64, n)
	logScores := make([]float64, n)
	visualModel.DecisionSet(set.Shard(0), scores, nil)
	logModel.DecisionBatch(logPts, logScores, nil)
	for i := range scores {
		scores[i] += logScores[i]
	}
	return scores
}

// BenchmarkRankingPathEuclidean measures the initial-query ranking path over
// rotating probe images (the server's steady-state workload — every probe
// misses the one-entry distance-row cache, exactly as distinct users do).
func BenchmarkRankingPathEuclidean(b *testing.B) {
	coll, mono, sharded := benchSetup(b)
	probes := []int{3, 40, 77, 114, 151, 188}
	b.Run("fullsort", func(b *testing.B) {
		ctx := coll.queryContext(probes[0], 10)
		ctx.Workers = 1
		ctx.Batch = mono
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Query = probes[i%len(probes)]
			scores, err := (Euclidean{}).Rank(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if got := fullSortSelect(scores, benchK); len(got) != benchK {
				b.Fatal("short selection")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		ctx := coll.queryContext(probes[0], 10)
		ctx.Workers = 1
		ctx.Batch = sharded
		buf := make([]Ranked, 0, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Query = probes[i%len(probes)]
			got, err := (Euclidean{}).RankTopAppend(ctx, benchK, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != benchK {
				b.Fatal("short selection")
			}
			buf = got
		}
	})
}

// BenchmarkRankingPathRFSVM measures the visual-model ranking stage with a
// pretrained model and a warm distance cache (feedback rounds re-rank the
// same query), isolating scoring + prior + selection.
func BenchmarkRankingPathRFSVM(b *testing.B) {
	coll, mono, sharded := benchSetup(b)
	ctx := coll.queryContext(3, 10)
	ctx.Workers = 1
	ctx.Batch = mono
	model, err := (RFSVM{}).train(ctx, mono)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fullsort", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = mono
		if _, err := queryDistances(ctx, mono); err != nil {
			b.Fatal(err)
		} // warm the per-query distance row
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scores := oldRankVisual(mono, model)
			dist, err := queryDistances(ctx, mono)
			if err != nil {
				b.Fatal(err)
			}
			addQueryPrior(scores, dist)
			if got := fullSortSelect(scores, benchK); len(got) != benchK {
				b.Fatal("short selection")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = sharded
		if _, err := queryDistances(ctx, sharded); err != nil {
			b.Fatal(err)
		}
		buf := make([]Ranked, 0, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn, err := visualScorer(ctx, sharded, model)
			if err != nil {
				b.Fatal(err)
			}
			got, err := rankTopRanges(ctx, sharded, CandidateSet{}, benchK, buf[:0], fn)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != benchK {
				b.Fatal("short selection")
			}
			buf = got
		}
	})
}

// BenchmarkRankingPathCoupled measures the two-modality ranking stage (the
// scoring pass shared by LRF-2SVMs and LRF-CSVM's final retrieval step)
// with pretrained models and a warm distance cache.
func BenchmarkRankingPathCoupled(b *testing.B) {
	coll, mono, sharded := benchSetup(b)
	ctx := coll.queryContext(3, 10)
	ctx.Workers = 1
	ctx.Batch = mono
	visualModel, logModel, err := (LRF2SVMs{}).train(ctx, mono)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fullsort", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = mono
		if _, err := queryDistances(ctx, mono); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scores := oldRankCoupled(ctx, mono, visualModel, logModel)
			dist, err := queryDistances(ctx, mono)
			if err != nil {
				b.Fatal(err)
			}
			addQueryPrior(scores, dist)
			if got := fullSortSelect(scores, benchK); len(got) != benchK {
				b.Fatal("short selection")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = sharded
		if _, err := queryDistances(ctx, sharded); err != nil {
			b.Fatal(err)
		}
		buf := make([]Ranked, 0, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn, err := retrievalScorer(ctx, sharded, visualModel, logModel)
			if err != nil {
				b.Fatal(err)
			}
			got, err := rankTopRanges(ctx, sharded, CandidateSet{}, benchK, buf[:0], fn)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != benchK {
				b.Fatal("short selection")
			}
			buf = got
		}
	})
}
