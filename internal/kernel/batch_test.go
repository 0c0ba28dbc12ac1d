package kernel

import (
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
)

func batchDensePoints(n, dim int, seed uint64) ([]linalg.Vector, []Point) {
	rng := linalg.NewRNG(seed)
	vs := make([]linalg.Vector, n)
	for i := range vs {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.Range(-2, 2)
		}
		vs[i] = v
	}
	return vs, DensePoints(vs)
}

// TestDenseSetSlice verifies slices view the parent storage consistently.
func TestDenseSetSlice(t *testing.T) {
	vs, _ := batchDensePoints(10, 3, 6)
	set := NewDenseSet(vs)
	sub := set.SliceInto(NewSetView(), 4, 8)
	if sub.Len() != 4 {
		t.Fatalf("slice len = %d, want 4", sub.Len())
	}
	for i := 0; i < sub.Len(); i++ {
		want := linalg.Vector(set.Point(4 + i))
		got := linalg.Vector(sub.Point(i))
		if !got.Equal(want, 0) {
			t.Errorf("slice point %d = %v, want %v", i, got, want)
		}
		if sub.norms[i] != set.norms[4+i] {
			t.Errorf("slice norm %d = %v, want %v", i, sub.norms[i], set.norms[4+i])
		}
	}
}

// TestFastExpAccuracy bounds the fast exponential against math.Exp
// over the argument range the RBF scoring path produces, and checks the
// extreme ranges delegate to math.Exp exactly.
func TestFastExpAccuracy(t *testing.T) {
	rng := linalg.NewRNG(7)
	for i := 0; i < 20000; i++ {
		x := rng.Range(-120, 5)
		want := math.Exp(x)
		got := expOne(x)
		if relErr(got, want) > 5e-15 {
			t.Fatalf("expOne(%v) = %v, want %v", x, got, want)
		}
	}
	for _, x := range []float64{-1e6, -750, 710, 1e6, math.Inf(-1), math.Inf(1), math.NaN()} {
		got := expOne(x)
		want := math.Exp(x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("expOne(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestDenseSetGrowLeavesReceiverIntact(t *testing.T) {
	all, _ := batchDensePoints(24, 5, 123)
	base := NewDenseSet(all[:8])
	wantNorms := append(linalg.Vector(nil), base.norms...)
	wantData := append([]float64(nil), base.mat.Data...)

	grown := base
	for _, hi := range []int{9, 16, 24} {
		grown = grown.Grow(all[grown.Len():hi])
	}
	if base.Len() != 8 {
		t.Fatalf("receiver length changed to %d", base.Len())
	}
	if !base.norms.Equal(wantNorms, 0) {
		t.Fatalf("receiver norms changed: %v != %v", base.norms, wantNorms)
	}
	if !linalg.Vector(base.mat.Data).Equal(linalg.Vector(wantData), 0) {
		t.Fatal("receiver storage changed")
	}
	if grown.Len() != 24 {
		t.Fatalf("grown length %d, want 24", grown.Len())
	}
}

func TestDenseSetGrowDimensionMismatchPanics(t *testing.T) {
	all, _ := batchDensePoints(4, 5, 5)
	set := NewDenseSet(all)
	defer func() {
		if recover() == nil {
			t.Fatal("Grow with mismatched dimension did not panic")
		}
	}()
	set.Grow([]linalg.Vector{make(linalg.Vector, 3)})
}
