package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lrfcsvm/internal/kernel"
)

// gradSelectCase is one input of gradSelect: the six arrays and the two
// hoisted step sizes.
type gradSelectCase struct {
	grad, rowI, rowJ, labels, upPen, lowPen []float64
	ydAi, ydAj                              float64
}

// Shapes of a gradSelectCase, combined as bits.
const (
	// gsTies draws gradients, rows and step sizes from a few small exact
	// values, +0 and -0 among them, so extremes repeat within a lane, across
	// lanes and across halves, and some tie at ±0.
	gsTies = 1 << iota
	// gsFlat zeroes the rows and sets every gradient to -1, as at the zero
	// start: every v is its label, so the extremes tie in long runs and the
	// first of each run must win, whichever lane, half or trip holds it.
	gsFlat
	// gsSpecial puts NaN and ±Inf into rows and gradients.
	gsSpecial
	// gsNoUp and gsNoLow exclude every point from the up or the low set.
	gsNoUp
	gsNoLow
	// gsNegZeroPen writes some members' penalties as -0.
	gsNegZeroPen
	gsShapes = 1 << iota
)

// newGradSelectCase builds an n-point input of the given shape from rng. Labels
// are ±1; a member's penalty is 0 and an outsider's is -Inf (up) or +Inf
// (low), as the solver writes them.
func newGradSelectCase(rng *rand.Rand, n, shape int) gradSelectCase {
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	value := func() float64 {
		if shape&gsSpecial != 0 && rng.Intn(8) == 0 {
			return pick(math.NaN(), math.Inf(1), math.Inf(-1))
		}
		if shape&gsTies != 0 {
			return pick(-2, -1, -0.5, math.Copysign(0, -1), 0, 0.5, 1, 2)
		}
		return rng.NormFloat64()
	}
	step := func() float64 {
		if shape&gsTies != 0 {
			return pick(-1, -0.5, 0.5, 1)
		}
		return rng.NormFloat64()
	}
	member := func() float64 {
		if shape&gsNegZeroPen != 0 && rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	c := gradSelectCase{
		grad: make([]float64, n), rowI: make([]float64, n), rowJ: make([]float64, n),
		labels: make([]float64, n), upPen: make([]float64, n), lowPen: make([]float64, n),
		ydAi: step(), ydAj: step(),
	}
	for t := 0; t < n; t++ {
		if shape&gsFlat != 0 {
			c.grad[t] = -1
		} else {
			c.grad[t], c.rowI[t], c.rowJ[t] = value(), value(), value()
		}
		c.labels[t] = pick(-1, 1)
		c.upPen[t], c.lowPen[t] = math.Inf(-1), math.Inf(1)
		if shape&gsNoUp == 0 && rng.Intn(4) != 0 {
			c.upPen[t] = member()
		}
		if shape&gsNoLow == 0 && rng.Intn(4) != 0 {
			c.lowPen[t] = member()
		}
	}
	return c
}

// checkGradSelect runs gradSelectGo on a copy of c's gradient and
// gradSelect on the arrays of on, which hold c's values, and requires the
// same bits of every written gradient and of the pair, its extremes
// included.
func checkGradSelect(t *testing.T, label string, c, on gradSelectCase) {
	t.Helper()
	want := append([]float64(nil), c.grad...)
	wi, wj, wUp, wLow := gradSelectGo(want, c.rowI, c.rowJ, c.labels, c.upPen, c.lowPen, c.ydAi, c.ydAj)
	gi, gj, gUp, gLow := gradSelect(on.grad, on.rowI, on.rowJ, on.labels, on.upPen, on.lowPen, c.ydAi, c.ydAj)
	for k, w := range want {
		if g := on.grad[k]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: grad[%d] = %v (%#x), Go member %v (%#x)", label, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if gi != wi || gj != wj || math.Float64bits(gUp) != math.Float64bits(wUp) || math.Float64bits(gLow) != math.Float64bits(wLow) {
		t.Fatalf("%s: (ni, nj, maxUp, minLow) = (%d, %d, %v, %v), Go member (%d, %d, %v, %v)",
			label, gi, gj, gUp, gLow, wi, wj, wUp, wLow)
	}
}

// checkOnCopy is checkGradSelect with gradSelect writing a heap copy of c's
// gradient.
func checkOnCopy(t *testing.T, label string, c gradSelectCase) {
	t.Helper()
	on := c
	on.grad = append([]float64(nil), c.grad...)
	checkGradSelect(t, label, c, on)
}

// TestGradSelectMatchesGo holds the member step runs on this build to the Go
// member, bit for bit, on every length up to 130 — every remainder modulo
// the eight elements of an assembly trip, whole trips before it or none —
// and every combination of the shapes above, including ties at ±0 inside a
// lane and across lanes, NaN and ±Inf in rows and gradients, and empty up
// or low sets.
func TestGradSelectMatchesGo(t *testing.T) {
	t.Logf("kernel backend %q", kernel.Backend())
	rng := rand.New(rand.NewSource(33))
	for n := 0; n <= 130; n++ {
		for shape := 0; shape < gsShapes; shape++ {
			for rep := 0; rep < 3; rep++ {
				checkOnCopy(t, fmt.Sprintf("n=%d shape=%#x rep %d", n, shape, rep), newGradSelectCase(rng, n, shape))
			}
		}
	}
}

// FuzzGradSelect runs TestGradSelectMatchesGo's check on fuzzed lengths,
// shapes and draws.
func FuzzGradSelect(f *testing.F) {
	for _, s := range []struct {
		seed  int64
		n     uint8
		shape uint8
	}{
		{1, 0, 0}, {2, 7, gsTies}, {3, 8, gsTies | gsFlat}, {4, 37, gsSpecial},
		{5, 56, gsTies | gsSpecial}, {6, 64, gsNoUp}, {7, 65, gsNoLow | gsTies},
		{8, 100, gsNoUp | gsNoLow}, {9, 129, gsTies | gsNegZeroPen}, {10, 130, gsShapes - 1},
	} {
		f.Add(s.seed, s.n, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkOnCopy(t, fmt.Sprintf("seed %d n=%d shape=%#x", seed, n, shape), newGradSelectCase(rng, int(n), int(shape)%gsShapes))
	})
}
