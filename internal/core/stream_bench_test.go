package core

import "testing"

// This file benchmarks the steady-state ranking path in isolation — the
// stage between a trained model and a bounded result list: streaming
// per-shard top-K selection with pooled scratch memory. Models are trained
// once outside the timed loop, so allocs/op and ns/op measure exactly the
// per-query scoring hot path.

const benchK = 20

// benchSetup builds the CI20-sized collection and the sharded batch of the
// streaming path over it.
func benchSetup(b *testing.B) (coll *syntheticCollection, sharded *CollectionBatch) {
	b.Helper()
	t := &testing.T{}
	coll = makeCollection(t, 8, 24, 60, 0, 5)
	if len(coll.visual) == 0 {
		b.Fatal("empty benchmark collection")
	}
	return coll, NewShardedCollectionBatch(coll.visual, 64)
}

// BenchmarkRankingPathEuclidean measures the initial-query ranking path over
// rotating probe images (the server's steady-state workload).
func BenchmarkRankingPathEuclidean(b *testing.B) {
	coll, sharded := benchSetup(b)
	probes := []int{3, 40, 77, 114, 151, 188}
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
// pretrained model, isolating scoring + prior + selection.
func BenchmarkRankingPathRFSVM(b *testing.B) {
	coll, sharded := benchSetup(b)
	ctx := coll.queryContext(3, 10)
	ctx.Workers = 1
	ctx.Batch = sharded
	model, err := (RFSVM{}).train(ctx, sharded)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stream", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = sharded
		buf := make([]Ranked, 0, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := rankTopRanges(ctx, sharded, CandidateSet{}, benchK, buf[:0], visualScorer(ctx, sharded, model))
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
// with pretrained models.
func BenchmarkRankingPathCoupled(b *testing.B) {
	coll, sharded := benchSetup(b)
	ctx := coll.queryContext(3, 10)
	ctx.Workers = 1
	ctx.Batch = sharded
	visual, log, err := (LRF2SVMs{}).train(ctx, sharded)
	if err != nil {
		b.Fatal(err)
	}
	visualModel, logModel := visual.Model(), log.Model()
	b.Run("stream", func(b *testing.B) {
		ctx := coll.queryContext(3, 10)
		ctx.Workers = 1
		ctx.Batch = sharded
		buf := make([]Ranked, 0, benchK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := rankTopRanges(ctx, sharded, CandidateSet{}, benchK, buf[:0], retrievalScorer(ctx, sharded, visualModel, logModel))
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
