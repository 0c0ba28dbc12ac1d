package core

import (
	"context"
	"math"
	"testing"
)

// TestRankTopQuantizedExactWhenSaturated pins the degenerate-but-decisive
// case: with an oversample that covers the whole collection every image
// survives the approximate pass, so the quantized lane must reproduce the
// exhaustive ranking bit for bit — same images, same order, same scores.
func TestRankTopQuantizedExactWhenSaturated(t *testing.T) {
	col := makeCollection(t, 4, 12, 40, 0.1, 77)
	ctx := col.queryContext(3, 6)
	const k = 10
	exact, err := Euclidean{}.RankTopAppend(ctx, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Euclidean{}.RankTopQuantized(ctx, k, len(col.visual), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exact) {
		t.Fatalf("quantized returned %d results, exact %d", len(got), len(exact))
	}
	for i := range got {
		if got[i].Index != exact[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(exact[i].Score) {
			t.Fatalf("result %d: quantized (%d, %.17g), exact (%d, %.17g)",
				i, got[i].Index, got[i].Score, exact[i].Index, exact[i].Score)
		}
	}
}

// TestRankTopQuantizedScoresAreExact checks the re-scoring contract at the
// default oversample: whatever images the approximate pass keeps, every
// returned score must equal the exhaustive score of that image exactly, and
// the result must be sorted like a ranking.
func TestRankTopQuantizedScoresAreExact(t *testing.T) {
	col := makeCollection(t, 4, 12, 40, 0.1, 78)
	ctx := col.queryContext(5, 6)
	const k = 12
	full, err := Euclidean{}.RankTopAppend(ctx, len(col.visual), nil)
	if err != nil {
		t.Fatal(err)
	}
	exactScore := make(map[int]float64, len(full))
	for _, r := range full {
		exactScore[r.Index] = r.Score
	}
	got, err := Euclidean{}.RankTopQuantized(ctx, k, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("got %d results, want %d", len(got), k)
	}
	for i, r := range got {
		want, ok := exactScore[r.Index]
		if !ok {
			t.Fatalf("result %d: image %d not in the collection ranking", i, r.Index)
		}
		if math.Float64bits(r.Score) != math.Float64bits(want) {
			t.Fatalf("image %d: quantized lane score %.17g, exact %.17g", r.Index, r.Score, want)
		}
		if i > 0 && rankedBefore(got[i], got[i-1]) {
			t.Fatalf("results out of order at %d", i)
		}
	}
}

// TestRankTopQuantizedCancelled checks the approximate pass honors
// cancellation like every other scan.
func TestRankTopQuantizedCancelled(t *testing.T) {
	col := makeCollection(t, 4, 12, 40, 0.1, 79)
	qc := col.queryContext(2, 6)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	qc.Ctx = cctx
	if _, err := (Euclidean{}).RankTopQuantized(qc, 10, 0, nil); err == nil {
		t.Fatal("cancelled quantized ranking succeeded")
	}
}

// TestRankTopQuantizedRecall pins the lane's usefulness on the synthetic
// collection: at the default oversample, the quantized top-20 must agree
// with the exact top-20 on at least 99% of images across queries. With
// TestQuantizedLaneRecallAndMAP (internal/eval) it is what holds the 0.99
// recall@20 floor.
func TestRankTopQuantizedRecall(t *testing.T) {
	col := makeCollection(t, 6, 20, 60, 0.1, 80)
	const k = 20
	hits, total := 0, 0
	for query := 0; query < len(col.visual); query += 7 {
		ctx := col.queryContext(query, 6)
		exact, err := Euclidean{}.RankTopAppend(ctx, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Euclidean{}.RankTopQuantized(ctx, k, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool, len(got))
		for _, r := range got {
			in[r.Index] = true
		}
		for _, r := range exact {
			total++
			if in[r.Index] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	t.Logf("quantized recall@%d = %.4f (%d/%d)", k, recall, hits, total)
	if recall < 0.99 {
		t.Fatalf("quantized recall@%d = %.4f, want >= 0.99", k, recall)
	}
}
