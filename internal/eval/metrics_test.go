package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lrfcsvm/internal/core"
)

// ranked is the ranking of every image by its score, best first.
func ranked(scores []float64) []core.Ranked {
	out := make([]core.Ranked, 0, len(scores))
	for _, i := range core.TopK(scores, len(scores)) {
		out = append(out, core.Ranked{Index: i, Score: scores[i]})
	}
	return out
}

func TestPrecisionAt(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	relevant := []bool{true, false, true, true, false}
	if got := PrecisionAt(ranked(scores), relevant, 1); got != 1 {
		t.Errorf("P@1 = %v", got)
	}
	if got := PrecisionAt(ranked(scores), relevant, 2); got != 0.5 {
		t.Errorf("P@2 = %v", got)
	}
	if got := PrecisionAt(ranked(scores), relevant, 5); got != 0.6 {
		t.Errorf("P@5 = %v", got)
	}
	// k beyond the collection size uses the whole collection.
	if got := PrecisionAt(ranked(scores), relevant, 50); got != 0.6 {
		t.Errorf("P@50 = %v", got)
	}
	if got := PrecisionAt(ranked(scores), relevant, 0); got != 0 {
		t.Errorf("P@0 = %v", got)
	}
}

func TestPrecisionCurveAndMAP(t *testing.T) {
	scores := []float64{5, 4, 3, 2, 1, 0}
	relevant := []bool{true, true, false, false, true, false}
	curve := []float64{PrecisionAt(ranked(scores), relevant, 1), PrecisionAt(ranked(scores), relevant, 2), PrecisionAt(ranked(scores), relevant, 4)}
	want := []float64{1, 1, 0.5}
	for i := range want {
		if math.Abs(curve[i]-want[i]) > 1e-12 {
			t.Errorf("curve[%d] = %v, want %v", i, curve[i], want[i])
		}
	}
	if got := MeanAveragePrecision(curve); math.Abs(got-(2.5/3)) > 1e-12 {
		t.Errorf("MAP = %v", got)
	}
	if MeanAveragePrecision(nil) != 0 {
		t.Error("MAP of empty curve should be 0")
	}
}

// Property: precision is always within [0,1] and monotone under adding
// relevant items at the top.
func TestPropertyPrecisionBounds(t *testing.T) {
	f := func(raw []bool) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i := range scores {
			scores[i] = float64(len(raw) - i)
		}
		p := PrecisionAt(ranked(scores), raw, len(raw))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowImprovement(t *testing.T) {
	base := Row{Scheme: "base", Precision: []float64{0.4, 0.2}, MAP: 0.3}
	better := Row{Scheme: "better", Precision: []float64{0.5, 0.25}, MAP: 0.375}
	if got := better.Improvement(base, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("improvement = %v, want 0.25", got)
	}
	if got := better.MAPImprovement(base); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MAP improvement = %v", got)
	}
	if got := better.Improvement(base, 5); got != 0 {
		t.Errorf("out-of-range improvement = %v", got)
	}
	zero := Row{Precision: []float64{0}, MAP: 0}
	if got := better.Improvement(zero, 0); got != 0 {
		t.Errorf("improvement over zero baseline = %v", got)
	}
}

func testTable() *Table {
	return &Table{
		Name:    "Table X",
		Dataset: "test",
		Queries: 10,
		Cutoffs: []int{20, 30},
		Rows: []Row{
			{Scheme: "Euclidean", Precision: []float64{0.4, 0.35}, MAP: 0.375},
			{Scheme: "RF-SVM", Precision: []float64{0.5, 0.45}, MAP: 0.475},
			{Scheme: "LRF-2SVMs", Precision: []float64{0.6, 0.5}, MAP: 0.55},
			{Scheme: "LRF-CSVM", Precision: []float64{0.7, 0.6}, MAP: 0.65},
		},
	}
}

func TestTableRowLookup(t *testing.T) {
	tbl := testTable()
	r, ok := tbl.Row("LRF-CSVM")
	if !ok || r.MAP != 0.65 {
		t.Errorf("Row lookup = %+v %v", r, ok)
	}
	if _, ok := tbl.Row("missing"); ok {
		t.Error("missing scheme found")
	}
}

func TestTableFormat(t *testing.T) {
	out := testTable().Format()
	for _, want := range []string{"Table X", "#TOP", "MAP", "LRF-CSVM", "+36.8%"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestCutoffsMatchPaper(t *testing.T) {
	want := []int{20, 30, 40, 50, 60, 70, 80, 90, 100}
	if len(Cutoffs) != len(want) {
		t.Fatalf("cutoffs = %v", Cutoffs)
	}
	for i := range want {
		if Cutoffs[i] != want[i] {
			t.Fatalf("cutoffs = %v, want %v", Cutoffs, want)
		}
	}
}
