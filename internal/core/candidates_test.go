package core

import (
	"fmt"
	"sort"
	"testing"

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
