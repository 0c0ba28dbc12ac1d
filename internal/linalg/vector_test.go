package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1, 2}.Dot(Vector{1})
}

func TestVectorDistance(t *testing.T) {
	v := Vector{0, 0}
	w := Vector{3, 4}
	if got := v.SquaredDistance(w); !almostEqual(got, 25, 1e-12) {
		t.Errorf("SquaredDistance = %v, want 25", got)
	}
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Scale(2); !got.Equal(Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	v.ScaleInPlace(-1)
	if !v.Equal(Vector{-1, -2, -3}, 0) {
		t.Errorf("ScaleInPlace = %v", v)
	}
}

func TestVectorMoments(t *testing.T) {
	v := Vector{2, 4, 4, 4, 5, 5, 7, 9}
	if got := v.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := v.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := v.Std(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestVectorSkewness(t *testing.T) {
	sym := Vector{-2, -1, 0, 1, 2}
	if got := sym.Skewness(); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness of symmetric data = %v, want 0", got)
	}
	right := Vector{1, 1, 1, 1, 10}
	if got := right.Skewness(); got <= 0 {
		t.Errorf("Skewness of right-tailed data = %v, want > 0", got)
	}
	constant := Vector{3, 3, 3}
	if got := constant.Skewness(); got != 0 {
		t.Errorf("Skewness of constant data = %v, want 0", got)
	}
	if got := (Vector{}).Skewness(); got != 0 {
		t.Errorf("Skewness of empty vector = %v, want 0", got)
	}
}

func TestVectorEmptyStats(t *testing.T) {
	var v Vector
	if v.Mean() != 0 || v.Variance() != 0 {
		t.Error("empty vector stats should be zero")
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Vector{1, 2}, Vector{3}, Vector{}, Vector{4, 5})
	if !got.Equal(Vector{1, 2, 3, 4, 5}, 0) {
		t.Errorf("Concat = %v", got)
	}
}

func TestVectorFillSum(t *testing.T) {
	v := Vector{2.5, 2.5, 2.5, 2.5}
	if got := v.Sum(); !almostEqual(got, 10, 1e-12) {
		t.Errorf("Sum = %v, want 10", got)
	}
}

// Property: the Cauchy-Schwarz inequality |<v,w>| <= ||v||*||w|| holds.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		v := Vector{clampF(a), clampF(b), clampF(c)}
		w := Vector{clampF(d), clampF(e), clampF(g)}
		lhs := math.Abs(v.Dot(w))
		rhs := math.Sqrt(v.Dot(v)) * math.Sqrt(w.Dot(w))
		return lhs <= rhs+1e-6*(1+rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality holds for the Euclidean distance.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		u := Vector{clampF(a), clampF(b)}
		v := Vector{clampF(c), clampF(d)}
		w := Vector{clampF(e), clampF(g)}
		dist := func(a, b Vector) float64 { return math.Sqrt(a.SquaredDistance(b)) }
		return dist(u, w) <= dist(u, v)+dist(v, w)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampF maps arbitrary float64 inputs from testing/quick into a well-behaved
// finite range so properties are not dominated by overflow artifacts.
func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
