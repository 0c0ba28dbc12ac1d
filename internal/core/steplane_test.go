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
			if !lane.written || lane.first[0] != q {
				t.Fatalf("%s: lane written %v, first rows %v", name, lane.written, lane.first)
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

// TestSeededFloorIsExact holds LRF-CSVM's seeded step 3 to the same pass
// unseeded, over the refine driver's collections (drawRefineCase, seeds
// 1–48), at k = 1, 20, seedRows, seedRows+1, the case's own k and past the
// collection:
//
//   - the floor seedFloor starts the pass from is, by Float64bits, the k-th
//     best of the unseeded pass's scores of the distinct seed rows, and
//     −Inf when there are fewer than k of them; so it is with every seed
//     given twice;
//   - the seeded pass returns the unseeded pass's top k, bit for bit.
//
// A pass whose context is cancelled before the seed block returns the
// context's error without scoring a seed. Each regime below must be reached:
// fewer seeds than k, duplicate seeds, k past the collection, judged images
// among the seeds, the cancelled block, and step 1 with nothing to draft.
func TestSeededFloorIsExact(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 48; seed++ {
		c := drawRefineCase(seed)
		ctx, err := c.context().validated(true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Batch = ctx.collectionBatch()
		b, n := ctx.Batch, len(c.visual)
		pass, _, err := trainCSVM(ctx, c.params, selectLogAssisted)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scores, err := scanScores(ctx, b, pass.fn)
		if err != nil {
			t.Fatal(err)
		}
		lane, judged := pass.lane, ctx.labeledSet()
		rows := slices.Compact(slices.Sorted(slices.Values(lane.seeds)))
		seen["no-seeds"] = seen["no-seeds"] || !lane.written && len(rows) == 0
		for _, k := range []int{1, 20, seedRows, seedRows + 1, c.k, n + 5} {
			if k <= 0 {
				continue
			}
			name := fmt.Sprintf("seed %d (%d images, %d seeds), k %d", seed, n, len(rows), k)
			want, kk := math.Inf(-1), min(k, n)
			if len(rows) >= kk {
				want = refTop(scores, func(i int) bool { _, ok := slices.BinarySearch(rows, i); return ok }, kk)[kk-1].Score
				seen["k-beyond-n"] = seen["k-beyond-n"] || k > n
				seen["judged-seeds"] = seen["judged-seeds"] || slices.ContainsFunc(rows, func(i int) bool { return judged[i] })
				seen["duplicate-seeds"] = true
			} else if len(rows) > 0 {
				seen["fewer-than-k"] = true
			}
			twice := append(slices.Clone(lane.seeds), lane.seeds...)
			for _, seeds := range [][]int{lane.seeds, twice} {
				if got := seededFloor(t, ctx, seedBlock{rows: seeds, score: pass.seed}, kk); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: seeded floor %v from %v, the unseeded pass's k-th best of them %v", name, got, seeds, want)
				}
			}
			unseeded, err := rankTopRanges(ctx, b, CandidateSet{first: lane.first}, k, nil, pass.fn, seedBlock{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := pass.top(ctx, CandidateSet{}, k, nil)
			if err := sameRanking(got, err, unseeded); err != nil {
				t.Fatalf("%s: the seeded pass against the unseeded: %v", name, err)
			}
		}
		if len(rows) > 0 {
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			stopped := *ctx
			stopped.Ctx = cancelled
			scored := false
			block := seedBlock{rows: lane.seeds, score: func(sc *rankScratch, rows []int, dst []float64) {
				scored = true
				pass.seed(sc, rows, dst)
			}}
			if _, err := rankTopRanges(&stopped, b, CandidateSet{}, 1, nil, pass.fn, block); !errors.Is(err, context.Canceled) || scored {
				t.Fatalf("seed %d: a pass cancelled before its seed block returns %v, seeds scored %v", seed, err, scored)
			}
			seen["cancelled"] = true
		}
		pass.release()
		if l := b.leased.Load(); l != 0 {
			t.Fatalf("seed %d: %d arenas or lanes not returned", seed, l)
		}
	}
	for _, r := range []string{"fewer-than-k", "duplicate-seeds", "k-beyond-n", "judged-seeds", "cancelled", "no-seeds"} {
		if !seen[r] {
			t.Errorf("no case reaches %s", r)
		}
	}
}

// seededFloor returns the floor a top-k pass starts from with the given
// seeds, on an arena of the context's batch.
func seededFloor(t *testing.T, ctx *QueryContext, seeds seedBlock, k int) float64 {
	t.Helper()
	sc := ctx.Batch.scratchGet()
	defer ctx.Batch.scratchPut(sc)
	sc.sel.reset(k)
	sc.floor.Store(math.Float64bits(math.Inf(-1)))
	if err := sc.seedFloor(ctx, seeds, k); err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(sc.floor.Load())
}
