package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"lrfcsvm/internal/linalg"
)

func TestNewAndSet(t *testing.T) {
	v := New(10)
	if v.Dim != 10 || len(v.Entries) != 0 {
		t.Fatalf("unexpected new vector %+v", v)
	}
	v.Set(3, 2.5)
	v.Set(7, -1)
	v.Set(1, 4)
	if len(v.Entries) != 3 {
		t.Fatalf("%d entries, want 3", len(v.Entries))
	}
	if v.At(3) != 2.5 || v.At(7) != -1 || v.At(1) != 4 || v.At(0) != 0 {
		t.Error("At returned wrong values")
	}
	// Entries must stay sorted by index.
	for i := 1; i < len(v.Entries); i++ {
		if v.Entries[i-1].Index >= v.Entries[i].Index {
			t.Fatal("entries not sorted")
		}
	}
}

func TestSetOverwriteAndDelete(t *testing.T) {
	v := New(5)
	v.Set(2, 1)
	v.Set(2, 3)
	if len(v.Entries) != 1 || v.At(2) != 3 {
		t.Error("overwrite failed")
	}
	v.Set(2, 0)
	if len(v.Entries) != 0 || v.At(2) != 0 {
		t.Error("delete via zero failed")
	}
	v.Set(4, 0)
	if len(v.Entries) != 0 {
		t.Error("setting absent entry to zero should be a no-op")
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Set(3, 1)
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	d := linalg.Vector{0, 1, 0, -2, 0, 0, 3}
	v := FromDense(d)
	if len(v.Entries) != 3 {
		t.Errorf("%d entries, want 3", len(v.Entries))
	}
	if !v.ToDense().Equal(d, 0) {
		t.Errorf("round trip = %v", v.ToDense())
	}
}

func TestDot(t *testing.T) {
	a := FromDense(linalg.Vector{1, 0, 2, 0, 3})
	b := FromDense(linalg.Vector{0, 5, 2, 0, -1})
	if got := a.Dot(b); got != 1 {
		t.Errorf("Dot = %v, want 1", got)
	}
	empty := New(5)
	if got := a.Dot(empty); got != 0 {
		t.Errorf("Dot with empty = %v", got)
	}
}

func TestDotDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).Dot(New(4))
}

func TestNorms(t *testing.T) {
	v := FromDense(linalg.Vector{3, 0, 4})
	if got := v.SquaredNorm(); math.Abs(got-25) > 1e-12 {
		t.Errorf("SquaredNorm = %v", got)
	}
}

func TestSquaredDistance(t *testing.T) {
	a := FromDense(linalg.Vector{1, 0, 0})
	b := FromDense(linalg.Vector{0, 0, 1})
	if got := a.SquaredDistance(b); math.Abs(got-2) > 1e-12 {
		t.Errorf("SquaredDistance = %v, want 2", got)
	}
	if got := a.SquaredDistance(a); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestEqual(t *testing.T) {
	a := FromDense(linalg.Vector{1, 0, 2})
	b := FromDense(linalg.Vector{1, 0, 2})
	if !a.Equal(b, 0) {
		t.Error("identical vectors not equal")
	}
	c := FromDense(linalg.Vector{1, 0})
	if a.Equal(c, 0) {
		t.Error("different dimensions reported equal")
	}
}

// Property: sparse Dot agrees with dense Dot.
func TestPropertyDotAgreesWithDense(t *testing.T) {
	f := func(raw1, raw2 [8]int8) bool {
		d1 := make(linalg.Vector, 8)
		d2 := make(linalg.Vector, 8)
		for i := 0; i < 8; i++ {
			// Use a ternary alphabet so many components are zero, like log vectors.
			d1[i] = float64(int(raw1[i])%2) * float64(int(raw1[i])%3)
			d2[i] = float64(int(raw2[i])%2) * float64(int(raw2[i])%3)
		}
		s1 := FromDense(d1)
		s2 := FromDense(d2)
		return math.Abs(s1.Dot(s2)-d1.Dot(d2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SquaredDistance agrees with the dense computation and is
// non-negative.
func TestPropertySquaredDistance(t *testing.T) {
	f := func(raw1, raw2 [6]int8) bool {
		d1 := make(linalg.Vector, 6)
		d2 := make(linalg.Vector, 6)
		for i := 0; i < 6; i++ {
			d1[i] = float64(int(raw1[i]) % 2)
			d2[i] = float64(int(raw2[i]) % 2)
		}
		s1 := FromDense(d1)
		s2 := FromDense(d2)
		got := s1.SquaredDistance(s2)
		want := d1.SquaredDistance(d2)
		return got >= 0 && math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
