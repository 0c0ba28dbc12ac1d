package kernel

import (
	"math"
	"math/rand"
	"testing"

	"lrfcsvm/internal/linalg"
)

// TestQuantizedRoundTrip pins the quantization rule: codes stay in the
// symmetric range [-127, 127], per-dimension reconstruction error is at
// most scale/2, and all-zero dimensions reconstruct exactly.
func TestQuantizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim = 50, 9
	vs := backendVectors(rng, n, dim)
	for i := range vs {
		vs[i][3] = 0 // dimension 3 is zero everywhere
	}
	q := NewQuantizedSet(vs)
	if q.n != n || q.dim != dim {
		t.Fatalf("quantized set is %dx%d, want %dx%d", q.n, q.dim, n, dim)
	}
	for i, v := range vs {
		for d := range v {
			rec := q.scales[d] * float64(q.codes[i*dim+d])
			if c := q.codes[i*dim+d]; c < -127 || c > 127 {
				t.Fatalf("code[%d][%d] = %d outside [-127,127]", i, d, c)
			}
			if d == 3 {
				if rec != 0 {
					t.Fatalf("zero dimension reconstructs to %v", rec)
				}
				continue
			}
			scale := q.scales[d]
			if err := math.Abs(v[d] - rec); err > scale/2+1e-15 {
				t.Fatalf("row %d dim %d: reconstruction error %g exceeds scale/2 = %g", i, d, err, scale/2)
			}
		}
	}
}

// TestQuantizedApproxDistances checks the scan arithmetic: the batched
// norm-decomposed scan must agree with the naive per-row distance to the
// dequantized vector up to decomposition rounding, be identical across
// repeated scans and sub-ranges, and never drift enough to matter for
// candidate selection.
func TestQuantizedApproxDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, dim = 37, 12
	vs := backendVectors(rng, n, dim)
	q := NewQuantizedSet(vs)
	query := make(linalg.Vector, dim)
	for d := range query {
		query[d] = rng.NormFloat64()
	}
	want := make([]float64, n)
	var maxMag float64
	for i := range vs {
		var s float64
		for d := range query {
			diff := query[d] - q.scales[d]*float64(q.codes[i*dim+d])
			s += diff * diff
		}
		want[i] = s
		if s > maxMag {
			maxMag = s
		}
	}
	got := make([]float64, n)
	q.ApproxSquaredDistances(query, 0, got)
	// The decomposition |q|²+|r|²-2q·r cancels; its absolute error is
	// bounded by a few ulps of the norm magnitudes, not of the distance.
	tol := 1e-12 * maxMag
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("row %d: scan %.17g, naive %.17g (tol %g)", i, got[i], want[i], tol)
		}
	}
	again := make([]float64, n)
	q.ApproxSquaredDistances(query, 0, again)
	sub := make([]float64, 10)
	q.ApproxSquaredDistances(query, 20, sub)
	for i := range again {
		if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: repeated scan differs (%.17g vs %.17g)", i, again[i], got[i])
		}
	}
	for i := range sub {
		if math.Float64bits(sub[i]) != math.Float64bits(got[20+i]) {
			t.Fatalf("sub-range row %d: %.17g, full scan %.17g", 20+i, sub[i], got[20+i])
		}
	}
}

// TestQuantizedDeterministic checks that two builds over the same data are
// identical, and that non-finite inputs quantize to pinned codes instead of
// poisoning scales.
func TestQuantizedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vs := backendVectors(rng, 8, 5)
	vs[2][1] = math.Inf(1)
	vs[3][4] = math.NaN()
	a := NewQuantizedSet(vs)
	b := NewQuantizedSet(vs)
	for d, s := range a.scales {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("scale[%d] = %v, want finite", d, s)
		}
		if math.Float64bits(s) != math.Float64bits(b.scales[d]) {
			t.Fatalf("scale[%d] differs between builds", d)
		}
	}
	for i := range a.codes {
		if a.codes[i] != b.codes[i] {
			t.Fatalf("code %d differs between builds", i)
		}
	}
	if c := a.codes[2*5+1]; c != 127 {
		t.Fatalf("+Inf quantized to %d, want clamp to 127", c)
	}
	if c := a.codes[3*5+4]; c != 0 {
		t.Fatalf("NaN quantized to %d, want 0", c)
	}
}

// TestQuantizedEmpty covers the degenerate shapes.
func TestQuantizedEmpty(t *testing.T) {
	q := NewQuantizedSet(nil)
	if q.n != 0 || q.dim != 0 {
		t.Fatalf("empty set is %dx%d", q.n, q.dim)
	}
}
