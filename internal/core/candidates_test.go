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
