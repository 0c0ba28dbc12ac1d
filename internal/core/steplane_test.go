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
	"lrfcsvm/internal/sparse"
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

// TestSeededFloorIsExact holds each seeded top-K pass to the same pass
// unseeded, over the refine driver's collections (drawRefineCase, seeds
// 1–48): LRF-CSVM's step 3, seeded by step 1's best rows, and LRF-2SVMs'
// pass, seeded by the judged positives and the rows the log vouches for
// (vouchedSeeds). At k = 1, 20, seedRows, seedRows+1, the case's own k and
// past the collection:
//
//   - the floor seedFloor starts the pass from is, by Float64bits, the k-th
//     best of the unseeded pass's scores of the distinct seed rows, and
//     −Inf when there are fewer than k of them; so it is with every seed
//     given twice;
//   - the seeded pass, which skips the rows the seeds scored, returns the
//     unseeded pass's top k, bit for bit.
//
// A pass whose context is cancelled before the seed block returns the
// context's error without scoring a seed. Each regime below must be reached:
// for LRF-CSVM fewer seeds than k, duplicate seeds, k past the collection,
// judged images among the seeds, the cancelled block, and step 1 with
// nothing to draft; for LRF-2SVMs no judged positive, positives in no
// session, a log of no session, a positive some session judged irrelevant,
// fewer vouched rows than k, a floor from rows beyond the positives, k past
// the collection, the cancelled block and a visual model that runs no tile.
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
		lane, judged := pass.lane, ctx.labeledSet()
		rows := slices.Compact(slices.Sorted(slices.Values(lane.seeds)))
		seen["no-seeds"] = seen["no-seeds"] || !lane.written && len(rows) == 0
		seen["judged-seeds"] = seen["judged-seeds"] || slices.ContainsFunc(rows, func(i int) bool { return judged[i] })
		twice := pass.seeds
		twice.rows = append(slices.Clone(lane.seeds), lane.seeds...)
		checkSeededPass(t, seen, "", fmt.Sprintf("seed %d, LRF-CSVM", seed), ctx, pass, twice, rows, c.k)
		pass.release()

		visual, log, err := LRF2SVMs{LogKernel: c.params.LogKernel}.train(ctx, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pass = twoSVMsScoring(ctx, b, visual.Model(), log.Model())
		positives := 0
		for _, ex := range ctx.Labeled {
			if ex.Label > 0 {
				positives++
				col := ctx.LogIndex.Column(ex.Index).Entries
				seen["2svms-positive-judged-irrelevant"] = seen["2svms-positive-judged-irrelevant"] ||
					slices.ContainsFunc(col, func(e sparse.Entry) bool { return e.Value < 0 })
				seen["2svms-positives-in-no-session"] = seen["2svms-positives-in-no-session"] || len(col) == 0 && ctx.LogIndex.Dim() > 0
			}
		}
		seen["2svms-no-positive"] = seen["2svms-no-positive"] || positives == 0
		seen["2svms-no-session"] = seen["2svms-no-session"] || ctx.LogIndex.Sessions() == nil
		vouched := pickVouched(ctx, n)
		rows = slices.Sorted(slices.Values(vouched))
		seen["2svms-beyond-positives"] = seen["2svms-beyond-positives"] || len(rows) > positives && len(rows) >= min(20, n)
		// A visual model without support vectors scores through no tile, so
		// the sink alone keeps the seeds' rows out of the selector.
		seen["2svms-untiled"] = seen["2svms-untiled"] || len(visual.Model().SupportPoints) == 0 && len(rows) >= min(20, n)
		twice = pass.seeds
		twice.rows = vouched
		checkSeededPass(t, seen, "2svms-", fmt.Sprintf("seed %d, LRF-2SVMs", seed), ctx, pass, twice, rows, c.k)
		pass.release()
		if l := b.leased.Load(); l != 0 {
			t.Fatalf("seed %d: %d arenas or lanes not returned", seed, l)
		}
	}
	for _, r := range []string{"fewer-than-k", "duplicate-seeds", "k-beyond-n", "judged-seeds", "cancelled", "no-seeds",
		"2svms-no-positive", "2svms-positives-in-no-session", "2svms-no-session", "2svms-positive-judged-irrelevant",
		"2svms-fewer-than-k", "2svms-beyond-positives", "2svms-k-beyond-n", "2svms-cancelled", "2svms-untiled"} {
		if !seen[r] {
			t.Errorf("no case reaches %s", r)
		}
	}
}

// checkSeededPass holds the seeded top-K pass of one scoring to the same
// pass unseeded (TestSeededFloorIsExact): rows are the distinct seed rows,
// ascending, and twice the pass's seed block with every row given twice.
// Regimes are recorded in seen under prefix.
func checkSeededPass(t *testing.T, seen map[string]bool, prefix, name string, ctx *QueryContext, pass scoring, twice seedBlock, rows []int, caseK int) {
	t.Helper()
	b, n := ctx.Batch, ctx.Batch.Len()
	scores, err := scanScores(ctx, b, pass.fn)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	if pass.lane != nil {
		first = pass.lane.first
	}
	for _, k := range []int{1, 20, seedRows, seedRows + 1, caseK, n + 5} {
		if k <= 0 {
			continue
		}
		name := fmt.Sprintf("%s (%d images, %d seeds), k %d", name, n, len(rows), k)
		want, kk := math.Inf(-1), min(k, n)
		if len(rows) >= kk {
			want = refTop(scores, func(i int) bool { _, ok := slices.BinarySearch(rows, i); return ok }, kk)[kk-1].Score
			seen[prefix+"k-beyond-n"] = seen[prefix+"k-beyond-n"] || k > n
			seen[prefix+"duplicate-seeds"] = true
		} else if len(rows) > 0 {
			seen[prefix+"fewer-than-k"] = true
		}
		for _, seeds := range []seedBlock{pass.seeds, twice} {
			if got := seededFloor(t, ctx, seeds, kk); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: seeded floor %v from %v, the unseeded pass's k-th best of them %v", name, got, rows, want)
			}
		}
		unseeded, err := rankTopRanges(ctx, b, CandidateSet{first: first}, k, nil, pass.fn, seedBlock{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pass.top(ctx, CandidateSet{}, k, nil)
		if err := sameRanking(got, err, unseeded); err != nil {
			t.Fatalf("%s: the seeded pass against the unseeded: %v", name, err)
		}
	}
	if len(rows) == 0 {
		return
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := *ctx
	stopped.Ctx = cancelled
	scored := false
	block := pass.seeds
	block.score = func(sc *rankScratch, rows []int, dst []float64) {
		scored = true
		pass.seeds.score(sc, rows, dst)
	}
	if _, err := rankTopRanges(&stopped, b, CandidateSet{}, 1, nil, pass.fn, block); !errors.Is(err, context.Canceled) || scored {
		t.Fatalf("%s: a pass cancelled before its seed block returns %v, seeds scored %v", name, err, scored)
	}
	seen[prefix+"cancelled"] = true
}

// pickVouched returns LRF-2SVMs' seed rows for the context, picked on an
// arena of its batch (vouchedSeeds) from the images [0, n).
func pickVouched(ctx *QueryContext, n int) []int {
	sc := ctx.Batch.scratchGet()
	defer ctx.Batch.scratchPut(sc)
	return slices.Clone(sc.vouchedSeeds(ctx.LogIndex, ctx.Labeled, n, nil))
}

// refVouched is vouchedSeeds' definition through maps, reading the log by
// image alone: the distinct judged positives ascending, then the images
// under n judged relevant in the sessions that judged a positive relevant,
// by descending count of those sessions and ascending index, seedRows in
// all at most.
func refVouched(log *kernel.LogIndex, labeled []LabeledExample, n int) []int {
	isPositive := map[int]bool{}
	var out []int
	for _, ex := range labeled {
		if ex.Label > 0 && !isPositive[ex.Index] {
			isPositive[ex.Index] = true
			out = append(out, ex.Index)
		}
	}
	slices.Sort(out)
	vouching := map[int]bool{}
	for p := range isPositive {
		for _, e := range log.Column(p).Entries {
			if e.Value > 0 {
				vouching[e.Index] = true
			}
		}
	}
	count := map[int]int{}
	for i := range n {
		for _, e := range log.Column(i).Entries {
			if e.Value > 0 && vouching[e.Index] && !isPositive[i] {
				count[i]++
			}
		}
	}
	var rest []int
	for i := range count {
		rest = append(rest, i)
	}
	slices.SortFunc(rest, func(a, b int) int {
		if count[a] != count[b] {
			return count[b] - count[a]
		}
		return a - b
	})
	out = append(out, rest...)
	return out[:min(len(out), seedRows)]
}

// TestVouchedSeedsMatchReference holds LRF-2SVMs' seed pick to refVouched,
// in order, over the refine driver's collections (seeds 1–96, the pick over
// every image and over the first half, so the log runs past the images
// picked from) and the 100 × 200 dense-log collection, 20 and 40 judged,
// then with every judgment relevant (more positives than seedRows). Each
// arena is reused across picks, as a server's are.
func TestVouchedSeedsMatchReference(t *testing.T) {
	check := func(name string, ctx *QueryContext, n int) {
		t.Helper()
		got, want := pickVouched(ctx, n), refVouched(ctx.LogIndex, ctx.Labeled, n)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: picked %v, reference %v", name, got, want)
		}
	}
	for seed := uint64(1); seed <= 96; seed++ {
		c := drawRefineCase(seed)
		ctx, err := c.context().validated(true)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Batch = ctx.collectionBatch()
		n := len(c.visual)
		check(fmt.Sprintf("seed %d", seed), ctx, n)
		check(fmt.Sprintf("seed %d, first half", seed), ctx, n/2)
	}
	coll := makeDenseLogCollection(t, 100, 200, 2000, 29)
	batch := NewCollectionBatch(coll.visual)
	for _, q := range []int{7, 4321, 12345, 16000, 18888, 19999} {
		for _, judged := range []int{20, 40} {
			ctx, err := coll.queryContext(q, judged).validated(true)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Batch = batch
			check(fmt.Sprintf("query %d, %d judged", q, judged), ctx, batch.Len())
			all := *ctx
			all.Labeled = slices.Clone(ctx.Labeled)
			for i := range all.Labeled {
				all.Labeled[i].Label = 1
			}
			check(fmt.Sprintf("query %d, %d judged relevant", q, judged), &all, batch.Len())
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
	if err := sc.seedFloor(ctx, seeds, k, ctx.Batch.Len()); err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(sc.floor.Load())
}
