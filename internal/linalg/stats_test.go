package linalg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEntropy(t *testing.T) {
	// Uniform distribution over 4 outcomes: entropy = ln 4.
	if got := Entropy([]float64{1, 1, 1, 1}); !almostEqual(got, math.Log(4), 1e-12) {
		t.Errorf("uniform entropy = %v, want ln4", got)
	}
	// Deterministic distribution: entropy = 0.
	if got := Entropy([]float64{1, 0, 0}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("deterministic entropy = %v, want 0", got)
	}
	// Zero mass: defined as 0.
	if got := Entropy([]float64{0, 0}); got != 0 {
		t.Errorf("zero-mass entropy = %v, want 0", got)
	}
}

func TestArgsort(t *testing.T) {
	xs := []float64{3, 1, 2}
	desc := ArgsortDesc(xs)
	if desc[0] != 0 || desc[1] != 2 || desc[2] != 1 {
		t.Errorf("ArgsortDesc = %v", desc)
	}
	asc := ArgsortAsc(xs)
	if asc[0] != 1 || asc[1] != 2 || asc[2] != 0 {
		t.Errorf("ArgsortAsc = %v", asc)
	}
}

func TestArgsortStableTies(t *testing.T) {
	xs := []float64{1, 1, 1}
	desc := ArgsortDesc(xs)
	if desc[0] != 0 || desc[1] != 1 || desc[2] != 2 {
		t.Errorf("ArgsortDesc ties not stable: %v", desc)
	}
}

// Property: ArgsortDesc yields values in non-increasing order and is a
// permutation of the indices.
func TestPropertyArgsortDesc(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = clampF(v)
		}
		idx := ArgsortDesc(xs)
		if len(idx) != len(xs) {
			return false
		}
		seen := make(map[int]bool, len(idx))
		for _, i := range idx {
			if i < 0 || i >= len(xs) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return sort.SliceIsSorted(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] }) ||
			isNonIncreasing(xs, idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func isNonIncreasing(xs []float64, idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if xs[idx[k-1]] < xs[idx[k]] {
			return false
		}
	}
	return true
}
