package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// This file holds LRF-CSVM's step lane (stepLane) to what step 3's bound
// assumes of it: its sums are step 3's deferred columns summed, bit for bit;
// a refine that drafts nothing never reads it; and a refine borrows and
// returns it on every path, a cancelled one included.

// TestStepLaneIsTheDeferredColumnsSum pins the lane step 1 records to the
// sum of step 3's deferred columns: each deferred support vector is a
// judged-relevant image, and each image's K⁺ carries, to the bit, the sum of
// their kernel columns in model order as the tile computes them alone
// (AccumulateSet with one unit coefficient, shard by shard). Where step 3
// defers fewer support vectors than step 1 summed, the lane bounds the sum
// from above. Refines run on two workers over shards of 64 rows.
func TestStepLaneIsTheDeferredColumnsSum(t *testing.T) {
	coll := makeDenseLogCollection(t, 10, 50, 1500, 29)
	batch := NewShardedCollectionBatch(coll.visual, 64)
	set := batch.VisualSet()
	exact := 0
	for _, q := range []int{3, 77, 160, 251, 342, 499} {
		for _, judged := range []int{10, 20, 40} {
			ctx, err := coll.queryContext(q, judged).validated(true)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Batch, ctx.Workers = batch, 2
			pass, coupled, err := trainCSVM(ctx, CSVMParams{}, selectLogAssisted)
			if err != nil {
				t.Fatal(err)
			}
			lane, vm := pass.lane, coupled.Models[0]
			name := fmt.Sprintf("query %d, %d judged", q, judged)
			if !lane.written || lane.seeds[0] != q {
				t.Fatalf("%s: lane written %v, seeds %v", name, lane.written, lane.seeds)
			}
			want := make([]float64, set.Len())
			for _, sv := range lane.deferred {
				p := vm.SupportPoints[sv].(kernel.Dense)
				if !slices.ContainsFunc(ctx.Labeled, func(ex LabeledExample) bool {
					return ex.Label > 0 && slices.Equal(kernel.Dense(coll.visual[ex.Index]), p)
				}) {
					t.Fatalf("%s: deferred support vector %d is no judged-relevant image", name, sv)
				}
				one := kernel.NewDenseSet([]linalg.Vector{linalg.Vector(p)})
				for si := range set.NumShards() {
					shard, lo := set.Shard(si), set.ShardStart(si)
					col := make([]float64, shard.Len())
					vm.Kernel.(kernel.RBF).AccumulateSet([]float64{1}, one, shard, col)
					for i, v := range col {
						want[lo+i] += v
					}
				}
			}
			for i, v := range lane.sums {
				if lane.terms == len(lane.deferred) && math.Float64bits(v) != math.Float64bits(want[i]) || !(v >= want[i]) {
					t.Fatalf("%s: image %d's K⁺ is %.17g, the sum of step 3's %d deferred columns %.17g (step 1 summed %d)",
						name, i, v, len(lane.deferred), want[i], lane.terms)
				}
			}
			if lane.terms == len(lane.deferred) && len(lane.deferred) > 0 {
				exact++
			}
			pass.release()
		}
	}
	if exact == 0 {
		t.Fatal("no refine deferred every support vector step 1 summed: the bit pin never ran")
	}
	if l := batch.leased.Load(); l != 0 {
		t.Fatalf("%d arenas or lanes not returned", l)
	}
}

// TestNothingToDraftReadsNoLane: when every image is judged, step 1 drafts
// nothing, its pass does not run and the lane stays unwritten, so step 3
// must not read it. The lane is poisoned with sums that would bound every
// row below any floor; the pass still ranks exactly as LRF-2SVMs does.
func TestNothingToDraftReadsNoLane(t *testing.T) {
	coll := makeCollection(t, 3, 8, 20, 0.05, 71)
	n := len(coll.visual)
	for _, query := range []int{0, 9, 22} {
		ctx := coll.queryContext(query, n)
		ctx.Batch = NewCollectionBatch(coll.visual)
		want, err := LRF2SVMs{}.RankTop(ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := ctx.validated(true)
		if err != nil {
			t.Fatal(err)
		}
		pass, _, err := trainCSVM(indexed, CSVMParams{}, selectLogAssisted)
		if err != nil {
			t.Fatal(err)
		}
		if pass.lane.written || len(pass.lane.deferred) != 0 || pass.lane.bound().Lane != nil {
			t.Fatalf("query %d: an undrafted refine hands off written %v, deferred %v", query, pass.lane.written, pass.lane.deferred)
		}
		for i := range pass.lane.sums {
			pass.lane.sums[i] = -math.MaxFloat64
		}
		got, err := pass.top(indexed, CandidateSet{}, 10, nil)
		pass.release()
		if err := sameRanking(got, err, want); err != nil {
			t.Fatalf("query %d: %v", query, err)
		}
	}
}

// TestCancelledRefineReturnsTheLane cancels an LRF-CSVM refine at every
// point it checks its context — step 1's units, the solver's polls, step 3's
// units — on one worker and on two, and requires every one to return its
// arenas and its step lane: the batch's leased count reads 0 after each.
func TestCancelledRefineReturnsTheLane(t *testing.T) {
	coll := makeDenseLogCollection(t, 6, 50, 600, 29)
	batch := NewShardedCollectionBatch(coll.visual, 32)
	for _, workers := range []int{1, 2} {
		ctx, err := coll.queryContext(40, 20).validated(true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Batch, ctx.Workers = batch, workers
		checks := newCountdownCtx(math.MaxInt32)
		ctx.Ctx = checks
		if _, err := (LRFCSVM{}).RankTop(ctx, 20); err != nil {
			t.Fatal(err)
		}
		total := int(math.MaxInt32 - checks.remaining.Load())
		if total < 20 {
			t.Fatalf("an LRF-CSVM refine checks its context only %d times", total)
		}
		for allowed := range total {
			ctx.Ctx = newCountdownCtx(allowed)
			if _, err := (LRFCSVM{}).RankTop(ctx, 20); !errors.Is(err, context.Canceled) {
				t.Fatalf("%d workers, cancelled after %d of %d checks: err %v", workers, allowed, total, err)
			}
			if l := batch.leased.Load(); l != 0 {
				t.Fatalf("%d workers, cancelled after %d of %d checks: %d arenas or lanes not returned", workers, allowed, total, l)
			}
		}
	}
}

// TestConcurrentRefinesShareTheLanes runs LRF-CSVM refines of different
// queries at once on one batch, each on two workers, so that they borrow and
// return step lanes concurrently: each must rank exactly as it does alone,
// and every lane must be back once they are done.
func TestConcurrentRefinesShareTheLanes(t *testing.T) {
	coll := makeDenseLogCollection(t, 6, 50, 600, 29)
	batch := NewShardedCollectionBatch(coll.visual, 32)
	queries := []int{5, 60, 130, 170, 240, 299}
	ctxs, want := make([]*QueryContext, len(queries)), make([][]Ranked, len(queries))
	for i, q := range queries {
		ctx, err := coll.queryContext(q, 20).validated(true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Batch, ctx.Workers = batch, 2
		if want[i], err = (LRFCSVM{}).RankTop(ctx, 20); err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}
	var wg sync.WaitGroup
	for round := range 3 {
		for i, ctx := range ctxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := LRFCSVM{}.RankTop(ctx, 20)
				if err := sameRanking(got, err, want[i]); err != nil {
					t.Errorf("round %d, query %d: %v", round, queries[i], err)
				}
			}()
		}
	}
	wg.Wait()
	if l := batch.leased.Load(); l != 0 {
		t.Fatalf("%d arenas or lanes not returned", l)
	}
}
