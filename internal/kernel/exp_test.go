package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// ulpDiff returns the distance between two floats in units of last place,
// using the standard order-preserving mapping of float64 bit patterns to
// integers (negative floats map below positives). Any NaN yields MaxUint64
// unless both are NaN.
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	ord := func(f float64) int64 {
		u := int64(math.Float64bits(f))
		if u < 0 {
			u = math.MinInt64 - u
		}
		return u
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// expULPBound is the accuracy contract of the Cephes fast path: at most 2
// ulp from math.Exp everywhere in the delegation window [-700, 700]. The RBF
// scoring path only ever evaluates exp of -gamma*d^2 <= 0, but the bound is
// held on the positive side too so the routine stays safely general.
const expULPBound = 2

// TestExpMaxULPFullRange sweeps the full non-delegating argument range with
// dense uniform sampling plus a fixed grid and pins the worst-case ULP error
// against math.Exp.
func TestExpMaxULPFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var worst uint64
	var worstAt float64
	check := func(x float64) {
		if d := ulpDiff(expOne(x), math.Exp(x)); d > worst {
			worst, worstAt = d, x
		}
	}
	// Uniform over the whole window, then concentrated where RBF arguments
	// actually live (small negative values down to deep underflow of the
	// similarity, not of the float).
	for i := 0; i < 200000; i++ {
		check(rng.Float64()*1400 - 700)
		check(-rng.Float64() * 50)
	}
	// Fixed grid including the exact window edges and the integer powers
	// where the 2^n scaling switches bit patterns.
	for x := -700.0; x <= 700.0; x += 0.5 {
		check(x)
	}
	for _, x := range []float64{-700, 700, -0.5, 0.5, 0, math.Ln2, -math.Ln2, 709.0 * math.Ln2 / 1.5} {
		check(x)
	}
	t.Logf("fast exp worst case: %d ulp at x = %.17g", worst, worstAt)
	if worst > expULPBound {
		t.Fatalf("fast exp is %d ulp off math.Exp at x = %.17g, contract is <= %d", worst, worstAt, expULPBound)
	}
}

// expExponent is the n of expOne: the power of two an in-window argument is
// scaled by.
func expExponent(x float64) int {
	return int(math.Floor(expLog2E*x + 0.5))
}

// TestExpDelegationEdges verifies everything outside the window — deep
// underflow into denormals, overflow to +Inf, infinities, NaN — is delegated
// to math.Exp bit-for-bit, and that inside it the exponent n stays in
// [-1010, 1010], where 2^n is a normal float64 and the scaling needs no
// math.Ldexp arm: at the window's edges and on both sides of the two
// arguments where n changes last.
func TestExpDelegationEdges(t *testing.T) {
	delegated := []float64{
		-1e308, -745.2, -744.03, -708.4, -700.0000001, // denormal/underflow region
		700.0000001, 709.5, 709.78, 710, 1e308, // overflow region (amd64's math.Exp is +Inf from 709.436)
		math.Inf(-1), math.Inf(1), math.NaN(),
	}
	for _, x := range delegated {
		if got, want := expOne(x), math.Exp(x); !sameBits(got, want) {
			t.Errorf("expOne(%v) = %v, want math.Exp's %v bit-for-bit", x, got, want)
		}
	}
	// math.Exp(-744.03) is a denormal; delegation must preserve it exactly.
	if w := math.Exp(-744.03); w == 0 || math.Float64bits(expOne(-744.03)) != math.Float64bits(w) {
		t.Errorf("denormal delegation broken: expOne(-744.03) = %v, want %v", expOne(-744.03), w)
	}

	// n steps to +1010 at hi and to -1010 just below -hi, and to nothing
	// further before the window ends.
	hi := 1009.5 / expLog2E
	for _, tc := range []struct {
		x float64
		n int
	}{
		{expWindow, 1010}, {hi + 1e-9, 1010}, {hi - 1e-9, 1009},
		{-expWindow, -1010}, {-hi - 1e-9, -1010}, {-hi + 1e-9, -1009},
	} {
		if tc.x > expWindow || tc.x < -expWindow {
			t.Fatalf("%v is outside the window; the last change of n must lie inside it", tc.x)
		}
		if n := expExponent(tc.x); n != tc.n {
			t.Errorf("n(%v) = %d, want %d", tc.x, n, tc.n)
		}
		if d := ulpDiff(expOne(tc.x), math.Exp(tc.x)); d > expULPBound {
			t.Errorf("expOne(%v) is %d ulp off math.Exp at the edge of the exponent range", tc.x, d)
		}
	}
}

// expSpecials are the elements that must stop a vector quad, or must not:
// NaN, the infinities, both zeros, the window's edges and their neighbours
// outside, arguments whose exponential is denormal or overflows, and
// denormal arguments.
var expSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	expWindow, -expWindow, 700.0000001, -700.0000001, -745.2, 710, 1e-320, -1e-320,
}

// checkExp runs one backend's exp over buf[off:off+n] in place and requires
// want there and the untouched original everywhere else in buf.
func checkExp(t *testing.T, k dotKernels, buf, orig, want []float64, off, n int) {
	t.Helper()
	copy(buf, orig)
	k.exp(buf[off : off+n : off+n])
	for i, x := range buf {
		w := orig[i]
		if i >= off && i < off+n {
			w = want[i]
		}
		if !sameBits(x, w) {
			t.Fatalf("%s len %d offset %d of %v: element %d (%v) came out %v, want %v", k.name, n, off, orig[off:off+n], i-off, orig[i], x, w)
		}
	}
}

// FuzzExp holds the accuracy and delegation contracts under fuzzing: inside
// the window the fast path stays within the ULP bound of math.Exp; outside
// it is math.Exp bit-for-bit; and every backend's exp is expOne on two
// eight-element halves built from x, the first of them poisoned when x is
// outside the window, in both orders, so a four- or an eight-lane member
// meets a poisoned group.
func FuzzExp(f *testing.F) {
	for _, x := range []float64{0, 1, -1, -50.25, 699.999, -699.999, 700, -700,
		709.78, -745.13, math.Ln2, -math.Ln2, 1e-300, -1e-300} {
		f.Add(x)
	}
	kernels := kernelsUnderTest()
	f.Fuzz(func(t *testing.T, x float64) {
		got, want := expOne(x), math.Exp(x)
		if x != x || x > expWindow || x < -expWindow {
			if !sameBits(got, want) {
				t.Fatalf("expOne(%v) = %v, want delegation to math.Exp's %v", x, got, want)
			}
		} else if d := ulpDiff(got, want); d > expULPBound {
			t.Fatalf("expOne(%v) = %v, %d ulp from math.Exp's %v", x, got, d, want)
		}
		w := math.Mod(x, expWindow) // inside the window whatever x is
		if w != w {
			w = -1
		}
		for _, args := range [2][16]float64{
			{x, -x, x / 2, x * 0.999, -x / 2, -x * 0.999, x / 4, -x / 4, w, -w, w / 2, w * 0.999, -w / 2, -w * 0.999, w / 4, -w / 4},
			{w, -w, w / 2, w * 0.999, -w / 2, -w * 0.999, w / 4, -w / 4, x, -x, x / 2, x * 0.999, -x / 2, -x * 0.999, x / 4, -x / 4},
		} {
			for _, k := range kernels {
				lanes := args
				k.exp(lanes[:])
				for i, xi := range args {
					if e := expOne(xi); !sameBits(lanes[i], e) {
						t.Fatalf("%s exp element %d (%v) = %v, expOne = %v", k.name, i, xi, lanes[i], e)
					}
				}
			}
		}
	})
}
