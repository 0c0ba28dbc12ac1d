package sparse

import (
	"testing"
)

// FuzzVectorOps drives a sparse vector through a fuzzed sequence of Set
// operations mirrored onto a dense model and checks every structural
// invariant and arithmetic result against it. Operand values are small
// dyadic rationals, so all the compared arithmetic is exact and the
// comparisons can demand bit equality.
func FuzzVectorOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 1, 0, 0, 0})                        // set then clear the same index
	f.Add([]byte{3, 8, 1, 1, 252, 1, 3, 16, 1})            // overwrite an index
	f.Add([]byte{23, 1, 1, 0, 1, 1, 11, 128, 1, 11, 0, 0}) // ends, middle, clear
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 24
		v := New(dim)
		dense := make([]float64, dim)
		for i := 0; i+2 < len(data); i += 3 {
			idx := int(data[i]) % dim
			val := float64(int8(data[i+1])) / 4
			if data[i+2]%5 == 0 {
				val = 0
			}
			v.Set(idx, val)
			dense[idx] = val
		}

		// Structural invariants: strictly ascending indices, no stored zeros.
		for i, e := range v.Entries {
			if e.Index < 0 || e.Index >= dim {
				t.Fatalf("entry %d has out-of-range index %d", i, e.Index)
			}
			if i > 0 && v.Entries[i-1].Index >= e.Index {
				t.Fatalf("entries not strictly ascending at %d: %v", i, v.Entries)
			}
			if e.Value == 0 {
				t.Fatalf("stored zero at index %d", e.Index)
			}
		}

		// Element access and dense round-trip.
		for i, want := range dense {
			if got := v.At(i); got != want {
				t.Fatalf("At(%d) = %v, want %v", i, got, want)
			}
		}
		w := FromDense(dense)
		if !v.Equal(w, 0) {
			t.Fatalf("FromDense mismatch: %v vs %v", v.ToDense(), dense)
		}
		if got := v.ToDense(); !got.Equal(dense, 0) {
			t.Fatalf("ToDense = %v, want %v", got, dense)
		}

		// Arithmetic against the dense model (exact dyadic values).
		var dot, norm2 float64
		for _, x := range dense {
			dot += x * x
			norm2 += x * x
		}
		if got := v.Dot(w); got != dot {
			t.Fatalf("Dot = %v, want %v", got, dot)
		}
		if got := v.SquaredNorm(); got != norm2 {
			t.Fatalf("SquaredNorm = %v, want %v", got, norm2)
		}
		if got := v.SquaredDistance(w); got != 0 {
			t.Fatalf("SquaredDistance to an equal vector = %v", got)
		}
	})
}
