package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

func TestDensePointOps(t *testing.T) {
	a := Dense(linalg.Vector{1, 2, 3})
	b := Dense(linalg.Vector{4, 5, 6})
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := a.SquaredDistance(b); got != 27 {
		t.Errorf("SquaredDistance = %v, want 27", got)
	}
}

func TestSparsePointOps(t *testing.T) {
	a := NewSparse(sparse.FromDense(linalg.Vector{1, 0, 1}))
	b := NewSparse(sparse.FromDense(linalg.Vector{0, 1, 1}))
	if got := a.Dot(b); got != 1 {
		t.Errorf("Dot = %v, want 1", got)
	}
	if got := a.SquaredDistance(b); got != 2 {
		t.Errorf("SquaredDistance = %v, want 2", got)
	}
}

func TestMixedPointTypesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic mixing dense and sparse points")
		}
	}()
	Dense(linalg.Vector{1}).Dot(NewSparse(sparse.FromDense(linalg.Vector{1})))
}

func TestLinearKernel(t *testing.T) {
	k := Linear{}
	a := Dense(linalg.Vector{1, 2})
	b := Dense(linalg.Vector{3, 4})
	if got := k.Eval(a, b); got != 11 {
		t.Errorf("linear = %v, want 11", got)
	}
}

func TestRBFKernel(t *testing.T) {
	k := RBF{Gamma: 0.5}
	a := Dense(linalg.Vector{0, 0})
	b := Dense(linalg.Vector{1, 1})
	want := math.Exp(-0.5 * 2)
	if got := k.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("rbf = %v, want %v", got, want)
	}
	// Identical points: K = 1.
	if got := k.Eval(a, a); got != 1 {
		t.Errorf("rbf(x,x) = %v, want 1", got)
	}
}

// Property: the RBF kernel is bounded in [0,1] and symmetric.
// (Mathematically K > 0, but for very distant points exp underflows to 0.)
func TestPropertyRBFBoundedSymmetric(t *testing.T) {
	k := RBF{Gamma: 0.7}
	f := func(a, b, c, d float64) bool {
		x := Dense(linalg.Vector{clampF(a), clampF(b)})
		y := Dense(linalg.Vector{clampF(c), clampF(d)})
		v := k.Eval(x, y)
		w := k.Eval(y, x)
		return v >= 0 && v <= 1 && math.Abs(v-w) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a 2x2 RBF Gram matrix is positive semidefinite
// (det >= 0 and non-negative diagonal), a consequence of Mercer's condition.
func TestPropertyRBFGram2x2PSD(t *testing.T) {
	k := RBF{Gamma: 0.5}
	f := func(a, b, c, d float64) bool {
		x := Dense(linalg.Vector{clampF(a), clampF(b)})
		y := Dense(linalg.Vector{clampF(c), clampF(d)})
		kxy := k.Eval(x, y)
		det := 1*1 - kxy*kxy
		return det >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

func TestPointConverters(t *testing.T) {
	dense := DensePoints([]linalg.Vector{{1, 2}, {3, 4}})
	if len(dense) != 2 {
		t.Fatalf("DensePoints len = %d", len(dense))
	}
	if got := dense[0].Dot(dense[1]); got != 11 {
		t.Errorf("converted dense Dot = %v", got)
	}
	sp := SparsePoints([]*sparse.Vector{sparse.FromDense(linalg.Vector{1, 0}), sparse.FromDense(linalg.Vector{1, 1})})
	if got := sp[0].Dot(sp[1]); got != 1 {
		t.Errorf("converted sparse Dot = %v", got)
	}
}
