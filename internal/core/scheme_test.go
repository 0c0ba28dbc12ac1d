package core

import (
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

func TestQueryContextValidate(t *testing.T) {
	visual := []linalg.Vector{{0, 0}, {1, 1}, {2, 2}}
	logs := []*sparse.Vector{sparse.New(2), sparse.New(2), sparse.New(2)}
	good := &QueryContext{
		Visual:     visual,
		LogVectors: logs,
		Query:      0,
		Labeled:    []LabeledExample{{Index: 0, Label: 1}, {Index: 2, Label: -1}},
	}
	if err := good.Validate(true); err != nil {
		t.Fatalf("valid context rejected: %v", err)
	}

	cases := []struct {
		name    string
		ctx     QueryContext
		needLog bool
	}{
		{"empty", QueryContext{}, false},
		{"bad query", QueryContext{Visual: visual, Query: 3, Labeled: good.Labeled}, false},
		{"no labels", QueryContext{Visual: visual, Query: 0}, false},
		{"bad labeled index", QueryContext{Visual: visual, Query: 0, Labeled: []LabeledExample{{Index: 9, Label: 1}}}, false},
		{"bad label value", QueryContext{Visual: visual, Query: 0, Labeled: []LabeledExample{{Index: 1, Label: 0}}}, false},
		{"missing log", QueryContext{Visual: visual, Query: 0, Labeled: good.Labeled}, true},
		{"nil log vector", QueryContext{Visual: visual, LogVectors: []*sparse.Vector{logs[0], logs[1], nil}, Query: 0, Labeled: good.Labeled}, true},
		{"log vector of another dimension", QueryContext{Visual: visual, LogVectors: []*sparse.Vector{logs[0], logs[1], sparse.New(3)}, Query: 0, Labeled: good.Labeled}, true},
		{"both log forms", QueryContext{Visual: visual, LogVectors: logs, LogIndex: logIndexOf(good), Query: 0, Labeled: good.Labeled}, true},
	}
	for _, c := range cases {
		if err := c.ctx.Validate(c.needLog); err == nil {
			t.Errorf("%s: invalid context accepted", c.name)
		}
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Errorf("TopK = %v, want [1 3 2]", top)
	}
	all := TopK(scores, 100)
	if len(all) != 5 {
		t.Errorf("TopK with large k returned %d", len(all))
	}
}

func TestSchemeNames(t *testing.T) {
	if (Euclidean{}).Name() != "Euclidean" {
		t.Error("Euclidean name")
	}
	if (RFSVM{}).Name() != "RF-SVM" {
		t.Error("RF-SVM name")
	}
	if (LRF2SVMs{}).Name() != "LRF-2SVMs" {
		t.Error("LRF-2SVMs name")
	}
	if (LRFCSVM{}).Name() != "LRF-CSVM" {
		t.Error("LRF-CSVM name")
	}
}

func TestSelectionStrategyString(t *testing.T) {
	if SelectMaxMin.String() != "max-min" || SelectBoundary.String() != "boundary" || SelectRandom.String() != "random" {
		t.Error("strategy names wrong")
	}
	if SelectionStrategy(99).String() == "" {
		t.Error("unknown strategy should still produce a string")
	}
}

func TestEuclideanRanksQueryFirst(t *testing.T) {
	col := makeCollection(t, 3, 10, 20, 0, 17)
	ctx := col.queryContext(5, 6)
	scores, err := Euclidean{}.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(col.visual) {
		t.Fatalf("scores length %d", len(scores))
	}
	if top := TopK(scores, 1); top[0] != ctx.Query {
		t.Errorf("query image not ranked first: %v", top[0])
	}
}

func TestEuclideanRejectsBadContext(t *testing.T) {
	if _, err := (Euclidean{}).Rank(&QueryContext{}); err == nil {
		t.Error("expected error")
	}
}
