package core

import (
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// TestCSVMParamsZeroValue states LRF-CSVM's one default: what the zero
// CSVMParams — LRFCSVM{}, the scheme of the tables, the server and the
// benchmark — resolves to, and that fields a program set survive. (A bare
// TrainCoupled call resolves its schedule through the same function:
// TestTrainCoupledRhoScheduleLength's zero-Rho row.)
func TestCSVMParamsZeroValue(t *testing.T) {
	want := CSVMParams{NumUnlabeled: 16, Coupled: CoupledConfig{Rho: 1, Delta: 1}, LogKernel: kernel.Linear{}}
	if got := (CSVMParams{}).withDefaults(); got != want {
		t.Errorf("zero CSVMParams resolves to %+v, want %+v", got, want)
	}
	set := CSVMParams{NumUnlabeled: 8, Coupled: CoupledConfig{Rho: 0.25, Delta: 0.5}, LogKernel: kernel.RBF{Gamma: 1}}
	if got := set.withDefaults(); got != set {
		t.Errorf("withDefaults changed set fields: %+v, want %+v", got, set)
	}
}

func TestLRFCSVMRequiresLog(t *testing.T) {
	col := makeCollection(t, 3, 10, 15, 0, 47)
	ctx := col.queryContext(0, 8)
	ctx.LogVectors = nil
	if _, err := (LRFCSVM{}).Rank(ctx); err == nil {
		t.Error("expected error without log vectors")
	}
}

func TestLRFCSVMBeatsRFSVMWithInformativeLog(t *testing.T) {
	// The paper's central claim: with an informative feedback log, the
	// coupled-SVM scheme improves retrieval precision over the regular
	// RF-SVM scheme. Use several queries and compare average precision@20.
	col := makeCollection(t, 4, 20, 80, 0.05, 59)
	queries := []int{2, 24, 41, 63, 70}
	params := CSVMParams{NumUnlabeled: 20}
	var rfTotal, csvmTotal float64
	for _, q := range queries {
		ctx := col.queryContext(q, 14)
		rf, err := RFSVM{}.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		csvm, err := LRFCSVM{Params: params}.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rfTotal += col.precisionAt(rf, q, 20)
		csvmTotal += col.precisionAt(csvm, q, 20)
	}
	if csvmTotal <= rfTotal {
		t.Errorf("LRF-CSVM precision %v not above RF-SVM %v", csvmTotal/5, rfTotal/5)
	}
}

func TestBoundaryAndRandomSelection(t *testing.T) {
	candidates := []int{0, 1, 2, 3, 4, 5}
	combined := []float64{-3, -0.1, 0.2, 5, -2, 0.05}
	idx, labels := BoundarySelection(candidates, combined, 3)
	if len(idx) != 3 {
		t.Fatalf("boundary selected %d", len(idx))
	}
	// The three smallest |score| are images 5 (0.05), 1 (-0.1), 2 (0.2).
	want := map[int]bool{5: true, 1: true, 2: true}
	for i, id := range idx {
		if !want[id] {
			t.Errorf("boundary selection picked %d", id)
		}
		if combined[id] >= 0 && labels[i] != 1 {
			t.Errorf("label mismatch for %d", id)
		}
	}

	rng := linalg.NewRNG(3)
	ridx, rlabels := RandomSelection(rng, candidates, combined, 4)
	if len(ridx) != 4 || len(rlabels) != 4 {
		t.Fatalf("random selected %d", len(ridx))
	}
	seen := map[int]bool{}
	for _, id := range ridx {
		if seen[id] {
			t.Error("random selection repeated an index")
		}
		seen[id] = true
	}
}

// TestLRFCSVMWithNothingToDraftIsLRF2SVMs: when every image is judged, step 1
// has no unlabeled image to draft, the coupled problem is the two independent
// labeled-only SVMs, and the retrieval pass is LRF-2SVMs' — same two models,
// same scorer, same query prior — so the two schemes must agree to the bit.
// A difference is a plumbing defect between the schemes, not a tolerance.
func TestLRFCSVMWithNothingToDraftIsLRF2SVMs(t *testing.T) {
	col := makeCollection(t, 3, 8, 20, 0.05, 71)
	n := len(col.visual)
	for _, query := range []int{0, 9, 22} {
		ctx := col.queryContext(query, n)
		final, coupled, err := trainCSVM(ctx, CSVMParams{})
		if err != nil {
			t.Fatal(err)
		}
		drafted := len(coupled.UnlabeledLabels) // the arena's until the release
		final.release()
		if drafted != 0 {
			t.Fatalf("query %d: %d images drafted from a fully judged collection", query, drafted)
		}
		want, err := LRF2SVMs{}.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LRFCSVM{}.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("query %d image %d: LRF-CSVM scores %v, LRF-2SVMs %v", query, i, got[i], want[i])
			}
		}
		wantTop, err := RankTop(LRF2SVMs{}, ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := RankTop(LRFCSVM{}, ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantTop {
			if gotTop[i].Index != wantTop[i].Index || math.Float64bits(gotTop[i].Score) != math.Float64bits(wantTop[i].Score) {
				t.Fatalf("query %d rank %d: LRF-CSVM %+v, LRF-2SVMs %+v", query, i, gotTop[i], wantTop[i])
			}
		}
	}
}
