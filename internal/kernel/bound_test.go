package kernel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lrfcsvm/internal/linalg"
)

// This file holds the tile driver's top-K bound to its definition: a scored
// row carries the bits of the straight-line reference (accumulateRBFScalar,
// then + add − sub), and a skipped row's reference score is strictly below
// the floor the driver read for its tile, with or without a lane of positive
// column sums standing in for deferred support vectors (PositiveSums).
// checkBoundedTile is the reference driver's draw (runKernelDriver),
// FuzzBoundedTile the same check on fuzzed shapes, and BenchmarkBoundedTile
// counts the kernel pairs a bounded pass evaluates through a wrapped member.

// floorKeeper is a top-K pass's floor as a test keeps it: the k-th best of
// the scores handed to it, over a drawn static floor (k = 0: the static
// floor alone). It records, per tile, the floor the driver read and the mask
// it handed back.
type floorKeeper struct {
	static float64
	k      int
	dst    []float64
	best   []float64 // the k best scores handed over, ascending
	read   float64   // the floor of the tile being scored
	tiles  []keptTile
}

type keptTile struct {
	lo, n int
	floor float64
	kept  uint64
}

func newFloorKeeper(static float64, k int, dst []float64) *floorKeeper {
	return &floorKeeper{static: static, k: k, dst: dst, read: math.Inf(-1)}
}

func (f *floorKeeper) Floor() float64 {
	f.read = f.static
	if f.k > 0 && len(f.best) == f.k {
		f.read = max(f.read, f.best[0])
	}
	return f.read
}

func (f *floorKeeper) Scored(lo, n int, kept uint64) {
	f.tiles = append(f.tiles, keptTile{lo: lo, n: n, floor: f.read, kept: kept})
	f.read = math.Inf(-1)
	for j := range n {
		if v := f.dst[lo+j]; kept>>j&1 == 1 && f.k > 0 && v == v {
			if i, _ := slices.BinarySearch(f.best, v); len(f.best) < f.k {
				f.best = slices.Insert(f.best, i, v)
			} else if i > 0 {
				f.best = slices.Insert(f.best[1:], i-1, v)
			}
		}
	}
}

// boundCase is one bounded pass to check on every member.
type boundCase struct {
	gamma         float64
	coefs         []float64
	svs, xs       *DenseSet
	pre, add, sub []float64 // the pre-filled scores and the two lanes
	pos           PositiveSums
	static        float64
	k             int
}

// columnSums is the lane of the sums of the columns of the support vectors
// summed names, ascending, by the straight-line loop: unit coefficients
// from +0, so each row adds the kernel values in the order a recording pass
// does.
func (c boundCase) columnSums(summed []int) []float64 {
	vecs, ones := make([]linalg.Vector, len(summed)), make([]float64, len(summed))
	for i, t := range summed {
		vecs[i], ones[i] = linalg.Vector(c.svs.mat.Row(t)), 1
	}
	lane := make([]float64, c.xs.Len())
	if len(summed) > 0 {
		accumulateRBFScalar(c.gamma, ones, NewDenseSet(vecs), c.xs, lane)
	}
	return lane
}

// hinted returns the case with the positive support vectors of deferred
// deferred and the lane holding the column sums of those of summed, which
// must include them, as a recording pass over a model whose positive
// support vectors are summed writes it.
func (c boundCase) hinted(deferred, summed []int) boundCase {
	c.pos = PositiveSums{Lane: c.columnSums(summed), Deferred: deferred, Terms: len(summed)}
	return c
}

// drawHint draws a subset of the case's positive support vectors to defer
// and a superset of it, within the positive ones, for the lane to sum.
func drawHint(rng *linalg.RNG, coefs []float64) (deferred, summed []int) {
	all := rng.Bool(0.5)
	for t, c := range coefs {
		if c > 0 && rng.Bool(0.6) {
			deferred = append(deferred, t)
			summed = append(summed, t)
		} else if c > 0 && (all || rng.Bool(0.5)) {
			summed = append(summed, t)
		}
	}
	return deferred, summed
}

// positives lists the support vectors of positive coefficient, ascending.
func positives(coefs []float64) []int {
	var ts []int
	for t, c := range coefs {
		if c > 0 {
			ts = append(ts, t)
		}
	}
	return ts
}

// parityDefers reports whether the parity rule pulls a deferred support
// vector into phase 1: the undeferred positives are odd and the support
// vector split places first in phase 2 is a deferred one.
func parityDefers(coefs []float64, deferred []int) bool {
	var ts TileScratch
	ts.split(0, coefs, make([]float64, len(coefs)), 1, deferred)
	return ts.p1 > ts.npos && slices.Contains(deferred, ts.order[ts.npos])
}

// reference is the score of every row by the straight-line loop.
func (c boundCase) reference() []float64 {
	want := slices.Clone(c.pre)
	accumulateRBFScalar(c.gamma, c.coefs, c.svs, c.xs, want)
	for j := range want {
		if c.add != nil {
			want[j] += c.add[j]
		}
		if c.sub != nil {
			want[j] -= c.sub[j]
		}
	}
	return want
}

// check runs the case on member k and holds it to the reference; it reports
// how many rows were skipped and whether a scored row tied its tile's floor.
func (c boundCase) check(t *testing.T, label string, k dotKernels, want []float64) (skipped int, tie bool) {
	t.Helper()
	got := slices.Clone(c.pre)
	f := newFloorKeeper(c.static, c.k, got)
	rbfTiles(k, c.gamma, c.coefs, c.svs, c.xs, got, c.add, c.sub, c.pos, new(TileScratch), f)
	rows := c.xs.Len()
	if len(f.tiles) != (rows+rbfBlockRows-1)/rbfBlockRows {
		t.Fatalf("%s on %s: %d tiles handed back for %d rows", label, k.name, len(f.tiles), rows)
	}
	for i, tile := range f.tiles {
		if tile.lo != i*rbfBlockRows || tile.n != min(rbfBlockRows, rows-tile.lo) {
			t.Fatalf("%s on %s: tile %d handed back as [%d, %d)", label, k.name, i, tile.lo, tile.lo+tile.n)
		}
		for j := range tile.n {
			r := tile.lo + j
			if tile.kept>>j&1 == 1 {
				if !sameBits(got[r], want[r]) {
					t.Fatalf("%s on %s: row %d scored %.17g, reference %.17g", label, k.name, r, got[r], want[r])
				}
				tie = tie || want[r] == tile.floor
				continue
			}
			skipped++
			if !(want[r] < tile.floor) || math.Float64bits(got[r]) != math.Float64bits(c.pre[r]) {
				t.Fatalf("%s on %s: row %d skipped with reference %.17g against floor %.17g (dst %v, pre-filled %v)",
					label, k.name, r, want[r], tile.floor, got[r], c.pre[r])
			}
		}
	}
	return skipped, tie
}

// drawFloor draws a floor at a row's reference score or one ulp either side
// of it, or none (-Inf), and a live k; ulp names the side.
func drawFloor(rng *linalg.RNG, want []float64) (static float64, k int, ulp string) {
	static, ulp = math.Inf(-1), "none"
	if len(want) > 0 && rng.Bool(0.7) {
		r := want[rng.Intn(len(want))]
		ulp = pick(rng, "at", "above", "below")
		switch ulp {
		case "above":
			r = math.Nextafter(r, math.Inf(1))
		case "below":
			r = math.Nextafter(r, math.Inf(-1))
		}
		static = r
	}
	if rng.Bool(0.5) {
		k = pick(rng, 1, 5, 20, max(len(want), 1))
	}
	return static, k, ulp
}

// checkBoundedTile draws a bounded pass — a model all-positive,
// all-negative or mixed, odd and even support-vector counts, zero
// coefficients of either sign, lanes to add and subtract or none, rows
// across the tile and poisoned ones — and a floor at a row's score or one
// ulp around it, live as a top-K pass keeps it, both or none, and holds
// every member to the reference. Then it runs the same pass with a random
// subset of the positive support vectors deferred to a lane of column sums,
// and records the lane of every positive column through the exported form.
func checkBoundedTile(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	rows, dim, nsv := drawRows(rng), pick(rng, 1, 3, 4, 5, 8, 36, 37), pick(rng, 1, 2, 3, 7, 8, 15, 20, 31, 40)
	svVecs := drawVectors(rng, nsv, dim)
	rowVecs := drawVectors(rng, max(rows, 1), dim)
	for i := 0; i < rows/4 && i < nsv; i++ {
		rowVecs[rng.Intn(rows)] = slices.Clone(svVecs[i])
	}
	special := rng.Bool(0.2)
	if special {
		poison(rng, rowVecs)
	}
	sign := pick(rng, "positive", "negative", "mixed")
	coefs := make([]float64, nsv)
	for i := range coefs {
		c := math.Abs(rng.Normal(0, 1))
		if sign == "negative" || sign == "mixed" && rng.Bool(0.5) {
			c = -c
		}
		if rng.Bool(0.05) {
			c = pick(rng, 0.0, math.Copysign(0, -1))
		}
		coefs[i] = c
	}
	c := boundCase{
		gamma: pick(rng, 1/float64(dim), 0.5+rng.Float64(), 0.05),
		coefs: coefs,
		svs:   NewDenseSet(svVecs),
		xs:    NewDenseSet(rowVecs).SliceInto(NewSetView(), 0, rows),
		pre:   make([]float64, rows),
	}
	bias := rng.Normal(0, 1)
	for j := range c.pre {
		c.pre[j] = bias
	}
	if rng.Bool(0.6) {
		c.add = make([]float64, rows)
		for j := range c.add {
			c.add[j] = rng.Normal(0, 0.5)
		}
	}
	if rng.Bool(0.6) {
		c.sub = make([]float64, rows)
		for j := range c.sub {
			c.sub[j] = 0.02 * math.Abs(rng.Normal(0, 3))
		}
	}
	want := c.reference()
	var ulp string
	c.static, c.k, ulp = drawFloor(rng, want)
	label := fmt.Sprintf("%d rows × %d dims, %d %s SVs, gamma %v, floor %v (%s), live k %d, lanes %v %v",
		rows, dim, nsv, sign, c.gamma, c.static, ulp, c.k, c.add != nil, c.sub != nil)
	for _, k := range kernelsUnderTest() {
		skipped, tie := c.check(t, label, k, want)
		seen["bound-skipped-"+sign] = seen["bound-skipped-"+sign] || skipped > 0
		seen["bound-odd-sv"] = seen["bound-odd-sv"] || skipped > 0 && nsv%2 == 1 && sign == "mixed"
		// An all-positive model's bound is its score: a tie must still score.
		seen["bound-tie"] = seen["bound-tie"] || tie && ulp == "at" && sign == "positive"
		seen["bound-ulp-"+ulp] = seen["bound-ulp-"+ulp] || skipped > 0
		seen["bound-live"] = seen["bound-live"] || skipped > 0 && c.k > 0 && ulp == "none"
		seen["bound-special"] = seen["bound-special"] || skipped > 0 && special
	}
	// The same pass with deferred support vectors, and a lane that sums
	// their columns and maybe other positive ones'.
	deferred, summed := drawHint(rng, coefs)
	if len(deferred) > 0 {
		h := c.hinted(deferred, summed)
		twice := parityDefers(coefs, deferred)
		label := fmt.Sprintf("%s, deferred %v of %v summed", label, deferred, summed)
		for _, k := range kernelsUnderTest() {
			skipped, _ := h.check(t, label, k, want)
			seen["bound-hinted"] = seen["bound-hinted"] || skipped > 0 && sign == "mixed"
			seen["bound-hinted-twice"] = seen["bound-hinted-twice"] || skipped > 0 && twice
			seen["bound-hinted-superset"] = seen["bound-hinted-superset"] || skipped > 0 && len(summed) > len(deferred)
		}
	}
	// The exported form on the backend that runs, with no bound, recording
	// the lane of every positive column.
	got, lane := slices.Clone(c.pre), make([]float64, rows)
	RBF{Gamma: c.gamma}.AccumulateBounded(c.coefs, c.svs, c.xs, got, c.add, c.sub, PositiveSums{Lane: lane, Record: true}, new(TileScratch), nil)
	checkParity(t, "AccumulateBounded without a bound on "+Backend()+" "+label, got, want)
	checkParity(t, "the recorded lane on "+Backend()+" "+label, lane, c.columnSums(positives(coefs)))
}

// TestBoundedTileMatchesReference pins the bound's regimes, one subtest
// each, to seeds of the reference driver that reach them.
func TestBoundedTileMatchesReference(t *testing.T) {
	for _, c := range []struct {
		regime string
		seed   uint64
	}{
		{"bound-skipped-mixed", 16},
		{"bound-skipped-positive", 11},
		{"bound-skipped-negative", 6},
		{"bound-odd-sv", 26},
		{"bound-tie", 19},
		{"bound-ulp-above", 12},
		{"bound-ulp-at", 15},
		{"bound-ulp-below", 6},
		{"bound-live", 71},
		{"bound-special", 14},
		{"bound-hinted", 16},
		{"bound-hinted-twice", 16},
		{"bound-hinted-superset", 16},
	} {
		t.Run(c.regime, func(t *testing.T) { kernelPin(t, c.regime, c.seed) })
	}
}

// FuzzBoundedTile builds a small bounded pass from the input bytes — values
// in sevenths, coefficients of either sign and zero, rows across two tiles,
// lanes or none — with a floor at a row's reference score, one ulp either
// side of it, or kept live as a top-K pass keeps it, and holds every member
// to the reference. Two last bytes, when the input has them, run it hinted
// too: the first masks the positive support vectors deferred to a lane of
// column sums, the second those the lane sums beside them.
func FuzzBoundedTile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 70, 1, 0, 9, 200, 7, 14, 250, 3})
	f.Add([]byte{8, 7, 100, 4, 2, 1, 3, 129, 131, 64, 7, 21, 250, 3, 90, 90})
	f.Add([]byte{1, 1, 129, 0, 1, 4, 5, 6, 7, 8, 9})
	// Three tiles of one-dimensional rows under a live top-1 floor, the
	// first positive support vector deferred and the second summed with it.
	hinted := []byte{0, 2, 129, 7, 0, 0, 3, 14, 7, 249, 7, 0, 14}
	for i := range 130 {
		hinted = append(hinted, byte(i%15))
	}
	f.Add(append(hinted, 0, 0b01, 0b10))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		value := func() float64 { return float64(int8(next())) / 7 }
		dim, nsv, rows := 1+int(next())%8, 1+int(next())%9, 1+int(next())%140
		gamma := float64(1+next()%16) / 16
		lanes, floorAt, side := next(), int(next()), int(next())%4
		coefs := make([]float64, nsv)
		for i := range coefs {
			coefs[i] = value()
		}
		vectors := func(n int) []linalg.Vector {
			vs := make([]linalg.Vector, n)
			for i := range vs {
				vs[i] = make(linalg.Vector, dim)
				for d := range vs[i] {
					vs[i][d] = value()
				}
			}
			return vs
		}
		c := boundCase{gamma: gamma, coefs: coefs, svs: NewDenseSet(vectors(nsv)), xs: NewDenseSet(vectors(rows)), pre: make([]float64, rows)}
		bias := value()
		for j := range c.pre {
			c.pre[j] = bias
		}
		if lanes&1 != 0 {
			c.add = make([]float64, rows)
			for j := range c.add {
				c.add[j] = value()
			}
		}
		if lanes&2 != 0 {
			c.sub = make([]float64, rows)
			for j := range c.sub {
				c.sub[j] = math.Abs(value()) / 50
			}
		}
		want := c.reference()
		c.static = want[floorAt%rows]
		switch side {
		case 1:
			c.static = math.Nextafter(c.static, math.Inf(1))
		case 2:
			c.static = math.Nextafter(c.static, math.Inf(-1))
		case 3:
			c.static, c.k = math.Inf(-1), 1+floorAt%rows
		}
		label := fmt.Sprintf("%d rows × %d dims, coefficients %v, floor %v, live k %d", rows, dim, coefs, c.static, c.k)
		for _, k := range kernelsUnderTest() {
			c.check(t, label, k, want)
		}
		deferMask, sumMask := next(), next()
		var deferred, summed []int
		for t, v := range coefs {
			if v > 0 && deferMask>>(t%8)&1 == 1 {
				deferred = append(deferred, t)
			}
			if v > 0 && (deferMask|sumMask)>>(t%8)&1 == 1 {
				summed = append(summed, t)
			}
		}
		if len(deferred) > 0 {
			h := c.hinted(deferred, summed)
			label := fmt.Sprintf("%s, deferred %v of %v summed", label, deferred, summed)
			for _, k := range kernelsUnderTest() {
				h.check(t, label, k, want)
			}
		}
	})
}

// BenchmarkBoundedTile counts the kernel pairs a top-20 pass evaluates
// through the tile driver's bound, against the pairs of an unbounded pass,
// through the running member wrapped so that its pair and row-dot routines
// count the rows they take: 5,000 rows of 36 dimensions in 50 clusters, a
// query cluster, support vectors from it (positive coefficients) and from
// others (negative), a log lane that lifts a third of the query's cluster and
// the query prior as the lane subtracted. The two models have the sign mix of
// the benchmark's traffic: feedback-paper's step-3 visual model (41 support
// vectors, 21 negative) and ingest-commit's LRF-2SVMs model (20, 12
// negative). pairs/row·sv is the evaluated share; ns/row the pass.
func BenchmarkBoundedTile(b *testing.B) {
	const rows, dim, clusters, k = 5000, 36, 50, 20
	rng := linalg.NewRNG(44)
	centres := drawVectors(rng, clusters, dim)
	vecs := make([]linalg.Vector, rows)
	for i := range vecs {
		vecs[i] = make(linalg.Vector, dim)
		for d := range vecs[i] {
			vecs[i][d] = centres[i%clusters][d] + rng.Normal(0, 1.6)
		}
	}
	xs := NewDenseSet(vecs)
	query := vecs[0]
	add, sub := make([]float64, rows), make([]float64, rows)
	for j := range add {
		if j%clusters == 0 && rng.Bool(0.33) {
			add[j] = rng.Range(0.2, 1)
		}
		sub[j] = 0.02 * math.Sqrt(query.SquaredDistance(vecs[j]))
	}
	for _, shape := range []struct {
		name          string
		nsv, negative int
	}{{"feedback-paper", 41, 21}, {"ingest-commit", 20, 12}} {
		svVecs, coefs := make([]linalg.Vector, shape.nsv), make([]float64, shape.nsv)
		for i := range svVecs {
			svVecs[i], coefs[i] = vecs[clusters*rng.Intn(rows/clusters)], rng.Range(0.1, 1)
			if i < shape.negative {
				svVecs[i], coefs[i] = vecs[rng.Intn(rows)], -coefs[i]
			}
		}
		svs := NewDenseSet(svVecs)
		var pairs int
		counted := activeKernels
		counted.pairArgs = func(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64) {
			pairs += 2 * rows
			activeKernels.pairArgs(mat, rows, cols, u, v, xn, nU, nV, negGamma, aU, aV)
		}
		counted.one = func(mat []float64, rows, cols int, u, du []float64) {
			pairs += rows
			activeKernels.one(mat, rows, cols, u, du)
		}
		dst, ts := make([]float64, rows), new(TileScratch)
		for _, bounded := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/bounded=%v", shape.name, bounded), func(b *testing.B) {
				pairs = 0
				for i := 0; i < b.N; i++ {
					for j := range dst {
						dst[j] = 0.1
					}
					var f Bound
					if bounded {
						f = newFloorKeeper(math.Inf(-1), k, dst)
					}
					rbfTiles(counted, 1.0/dim, coefs, svs, xs, dst, add, sub, PositiveSums{}, ts, f)
				}
				b.ReportMetric(float64(pairs)/float64(b.N*rows*shape.nsv), "pairs/row·sv")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			})
		}
	}
}
