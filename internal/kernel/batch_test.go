package kernel

import (
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
