package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// splitLists partitions a strictly ascending index slice into count
// round-robin-sized contiguous lists — an arbitrary grouping, to show the
// lane's result does not depend on how candidates are grouped.
func splitLists(idx []int32, count int) [][]int32 {
	if len(idx) == 0 || count < 1 {
		return nil
	}
	var lists [][]int32
	per := (len(idx) + count - 1) / count
	for lo := 0; lo < len(idx); lo += per {
		hi := lo + per
		if hi > len(idx) {
			hi = len(idx)
		}
		lists = append(lists, idx[lo:hi:hi])
	}
	return lists
}

// subsetTopK is the brute-force oracle: filter the full exhaustive score row
// down to the candidate images and take the top k under the descending-score,
// ascending-index order.
func subsetTopK(scores []float64, cands CandidateSet, n, k int) []Ranked {
	member := make([]bool, n)
	for _, l := range cands.Lists {
		for _, i := range l {
			member[i] = true
		}
	}
	tail := cands.TailStart
	if tail < 0 {
		tail = 0
	}
	for i := tail; i < n; i++ {
		member[i] = true
	}
	var all []Ranked
	for i, m := range member {
		if m {
			all = append(all, Ranked{Index: i, Score: scores[i]})
		}
	}
	sort.Slice(all, func(a, b int) bool { return rankedBefore(all[a], all[b]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// A candidate set covering every image must reproduce the exhaustive RankTop
// bit-for-bit, for every shard count, worker count and list grouping — the
// exactness half of the pruned path's contract.
func TestRankTopCandidatesFullCoverageParity(t *testing.T) {
	coll := makeCollection(t, 4, 14, 40, 0, 5)
	n := len(coll.visual)
	tailStart := n - n/4
	indexed := make([]int32, tailStart)
	for i := range indexed {
		indexed[i] = int32(i)
	}

	refCtx := coll.queryContext(3, 10)
	refCtx.Workers = 1
	want, err := Euclidean{}.RankTop(refCtx, 10)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 7} {
		batch := NewShardedCollectionBatch(coll.visual, (n+shards-1)/shards)
		for _, workers := range []int{1, 4} {
			for _, groups := range []int{1, 3, 16} {
				name := fmt.Sprintf("shards=%d workers=%d groups=%d", shards, workers, groups)
				ctx := coll.queryContext(3, 10)
				ctx.Workers = workers
				ctx.Batch = batch
				cands := CandidateSet{Lists: splitLists(indexed, groups), TailStart: tailStart}
				got, err := Euclidean{}.RankTopCandidates(ctx, cands, 10, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: result %d = %+v, want %+v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// A strict subset of candidates must come back as exactly the top k of that
// subset under true exhaustive scores: the re-rank is exact even when the
// candidate set is not.
func TestRankTopCandidatesSubsetExact(t *testing.T) {
	coll := makeCollection(t, 4, 14, 40, 0, 7)
	n := len(coll.visual)
	refCtx := coll.queryContext(5, 10)
	refCtx.Workers = 1
	scores, err := Euclidean{}.Rank(refCtx)
	if err != nil {
		t.Fatal(err)
	}

	rng := linalg.NewRNG(21)
	tailStart := n - 6
	var subset []int32
	for i := 0; i < tailStart; i++ {
		if rng.Bool(0.4) {
			subset = append(subset, int32(i))
		}
	}
	for _, shards := range []int{1, 2, 7} {
		batch := NewShardedCollectionBatch(coll.visual, (n+shards-1)/shards)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			cands := CandidateSet{Lists: splitLists(subset, 4), TailStart: tailStart}
			want := subsetTopK(scores, cands, n, 10)
			ctx := coll.queryContext(5, 10)
			ctx.Workers = workers
			ctx.Batch = batch
			got, err := Euclidean{}.RankTopCandidates(ctx, cands, 10, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: result %d = %+v, want %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}

// Edge semantics: k<=0 and an empty candidate set both yield empty results;
// TailStart<=0 with no lists degrades to the exhaustive scan.
func TestRankTopCandidatesEdgeCases(t *testing.T) {
	coll := makeCollection(t, 2, 8, 20, 0, 3)
	n := len(coll.visual)
	ctx := coll.queryContext(1, 6)
	ctx.Workers = 1

	if got, err := (Euclidean{}).RankTopCandidates(ctx, CandidateSet{TailStart: 0}, 0, nil); err != nil || len(got) != 0 {
		t.Fatalf("k=0: got %d results, err %v", len(got), err)
	}
	if got, err := (Euclidean{}).RankTopCandidates(ctx, CandidateSet{TailStart: n}, 5, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty candidates: got %d results, err %v", len(got), err)
	}

	want, err := Euclidean{}.RankTop(coll.queryContext(1, 6), 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (Euclidean{}).RankTopCandidates(ctx, CandidateSet{TailStart: -1}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tail-only scan: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tail-only scan diverges at %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// passUnits returns the in-shard ranges each work unit of p scores, unit by
// unit.
func passUnits(p scanPass) [][][2]int {
	units := make([][][2]int, p.units)
	t := 0
	p.fn = func(_ *rankScratch, sub *kernel.DenseSet, lo int, _ []float64) {
		units[t] = append(units[t], [2]int{lo, lo + sub.Len()})
	}
	p.sink = scoreSink(make([]float64, p.set.Len()))
	sc := &rankScratch{}
	for ; t < p.units; t++ {
		p.unit(sc, t)
	}
	return units
}

// TestScanPassUnits pins how a pass is cut into work units. Every candidate
// is scored once, in list order and then tail order, through ranges that stay
// inside one shard; a list's ranges are its maximal runs; a tail unit is one
// range of at most a shard and, but for a shard's remainder or the tail's
// first rows, at least min(minUnitRows, shard size); the pass runs on at most
// as many workers as it has units. At the serving shard size the tail-only cut
// is pinned unit by unit: a tail of at most minUnitRows rows is one unit,
// which the caller scores alone whatever the worker count.
func TestScanPassUnits(t *testing.T) {
	ss := kernel.DefaultShardSize
	full := func(shards, rem int) []int { return append(slices.Repeat([]int{ss}, shards), rem) }
	want := map[[2]int][]int{ // {rows, workers}: the rows of each unit
		{500, 1}: {500}, {500, 2}: {500}, {500, 4}: {500},
		{1000, 1}: {1000}, {1000, 2}: {1000}, {1000, 4}: {1000},
		{1500, 1}: {1500}, {1500, 2}: {1024, 476}, {1500, 4}: {1024, 476},
		{2000, 1}: {2000}, {2000, 2}: {1024, 976}, {2000, 4}: {1024, 976},
		{5000, 1}: full(2, 904), {5000, 2}: full(2, 904), {5000, 4}: {1250, 798, 1250, 798, 904, 0},
		{50000, 1}: full(24, 848), {50000, 2}: full(24, 848), {50000, 4}: full(24, 848),
	}
	rng := linalg.NewRNG(34)
	for _, n := range []int{500, 1000, 1500, 2000, 5000, 50000} {
		visual := make([]linalg.Vector, n)
		for i := range visual {
			visual[i] = linalg.Vector{float64(i)}
		}
		for _, cands := range []CandidateSet{{}, randomCandidates(rng, n)} {
			var order []int // every candidate, lists first, then the tail
			for _, l := range cands.Lists {
				for _, i := range l {
					order = append(order, int(i))
				}
			}
			for i := cands.TailStart; i < n; i++ {
				order = append(order, i)
			}
			for _, shardSize := range []int{1, 7, ss} {
				set := kernel.NewShardedSet(visual, shardSize)
				shardEnd := func(i int) int { return min((i/shardSize+1)*shardSize, n) }
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("n=%d lists=%d shard=%d workers=%d", n, len(cands.Lists), shardSize, workers)
					p := newScanPass(&QueryContext{Workers: workers}, set, cands, nil, nil)
					if p.workers != min(workers, p.units) {
						t.Fatalf("%s: %d workers for %d units", name, p.workers, p.units)
					}
					units := passUnits(p)
					var scored []int
					for u, ranges := range units {
						for r, rg := range ranges {
							if rg[0] >= rg[1] || rg[1] > shardEnd(rg[0]) {
								t.Fatalf("%s: unit %d scores [%d,%d), which is empty or crosses a shard", name, u, rg[0], rg[1])
							}
							if u < len(cands.Lists) && r > 0 && ranges[r-1][1] == rg[0] && rg[0]%shardSize != 0 {
								t.Fatalf("%s: unit %d splits a run at %d", name, u, rg[0])
							}
							for i := rg[0]; i < rg[1]; i++ {
								scored = append(scored, i)
							}
						}
						if u < len(cands.Lists) || len(ranges) == 0 {
							continue
						}
						lo, hi := ranges[0][0], ranges[0][1]
						if len(ranges) > 1 || hi-lo < min(minUnitRows, shardSize) && hi != shardEnd(lo) && lo != cands.TailStart {
							t.Fatalf("%s: tail unit %d scores %v", name, u, ranges)
						}
					}
					if !slices.Equal(scored, order) {
						t.Fatalf("%s: the units score %d rows, not the %d candidates in order", name, len(scored), len(order))
					}
					if cands.Lists != nil || shardSize != ss {
						continue
					}
					var sizes []int
					for _, ranges := range units {
						size := 0
						for _, rg := range ranges {
							size += rg[1] - rg[0]
						}
						sizes = append(sizes, size)
					}
					if w := want[[2]int{n, workers}]; !slices.Equal(sizes, w) {
						t.Fatalf("%s: units of %v rows, want %v", name, sizes, w)
					}
				}
			}
		}
	}
}

// Cancellation mid-scan must surface the context error and discard the
// partial selection, on both the serial and the parallel path.
func TestRankTopCandidatesCancelled(t *testing.T) {
	coll := makeCollection(t, 4, 14, 20, 0, 9)
	n := len(coll.visual)
	indexed := make([]int32, n)
	for i := range indexed {
		indexed[i] = int32(i)
	}
	for _, workers := range []int{1, 4} {
		ctx := coll.queryContext(2, 6)
		ctx.Workers = workers
		ctx.Batch = NewShardedCollectionBatch(coll.visual, 8)
		ctx.Ctx = newCountdownCtx(1)
		cands := CandidateSet{Lists: splitLists(indexed, 12), TailStart: n}
		got, err := Euclidean{}.RankTopCandidates(ctx, cands, 10, nil)
		if err == nil {
			t.Fatalf("workers=%d: cancelled scan returned %d results and no error", workers, len(got))
		}
		if got != nil {
			t.Fatalf("workers=%d: cancelled scan returned partial results", workers)
		}
	}
}
