package linalg

import (
	"math"
	"testing"
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
	asc := ArgsortAsc(xs)
	if asc[0] != 1 || asc[1] != 2 || asc[2] != 0 {
		t.Errorf("ArgsortAsc = %v", asc)
	}
}

func TestArgsortStableTies(t *testing.T) {
	xs := []float64{1, 1, 1}
	asc := ArgsortAsc(xs)
	if asc[0] != 0 || asc[1] != 1 || asc[2] != 2 {
		t.Errorf("ArgsortAsc ties not stable: %v", asc)
	}
}
