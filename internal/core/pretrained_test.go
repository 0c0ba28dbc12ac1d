package core

import (
	"math"
	"testing"
)

// TestPretrained2SVMsParity pins the isolated ranking stage to the end-to-end
// scheme: a pretrained pair must score the collection exactly like
// LRF2SVMs.Rank (training is deterministic for a fixed context), and its
// streaming top-k must be bit-identical to the full sort of those scores.
func TestPretrained2SVMsParity(t *testing.T) {
	coll := makeCollection(t, 4, 12, 40, 0, 21)
	ctx := coll.queryContext(3, 10)
	pre, err := LRF2SVMs{}.Pretrain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	endToEnd, err := LRF2SVMs{}.Rank(coll.queryContext(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	scores, err := rankScores(pre, coll.queryContext(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(endToEnd) {
		t.Fatalf("pretrained pair returned %d scores, want %d", len(scores), len(endToEnd))
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(endToEnd[i]) {
			t.Fatalf("score %d: pretrained %.17g, end-to-end %.17g", i, scores[i], endToEnd[i])
		}
	}

	const k = 10
	wantIdx := argsortTopK(scores, k)
	got, err := pre.RankTopAppend(coll.queryContext(3, 10), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantIdx) {
		t.Fatalf("stream returned %d results, want %d", len(got), len(wantIdx))
	}
	for i, r := range got {
		if r.Index != wantIdx[i] || math.Float64bits(r.Score) != math.Float64bits(scores[r.Index]) {
			t.Fatalf("stream result %d = (%d, %.17g), want (%d, %.17g)",
				i, r.Index, r.Score, wantIdx[i], scores[wantIdx[i]])
		}
	}
}

// TestPretrained2SVMsValidates checks the pretrained path keeps the scheme's
// log requirement.
func TestPretrained2SVMsValidates(t *testing.T) {
	coll := makeCollection(t, 3, 10, 30, 0, 22)
	ctx := coll.queryContext(2, 8)
	ctx.LogVectors = nil
	if _, err := (LRF2SVMs{}).Pretrain(ctx); err == nil {
		t.Fatal("Pretrain accepted a context without log vectors")
	}
}
