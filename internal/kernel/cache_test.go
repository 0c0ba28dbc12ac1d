package kernel

import (
	"fmt"
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

func cachePoints(n, dim int, seed uint64) []Point {
	rng := linalg.NewRNG(seed)
	pts := make([]Point, n)
	for i := range pts {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.Range(-1, 1)
		}
		pts[i] = Dense(v)
	}
	return pts
}

// evalOnly hides a kernel's batched path, so a cache fills its rows through
// EvalBatch's per-pair fall-back.
type evalOnly struct{ Kernel }

// checkGramOf holds every Row(i)[j] of c to k.Eval(pts[i], pts[j]) and to
// Row(j)[i], bit for bit.
func checkGramOf(t *testing.T, label string, k Kernel, pts []Point, c *Cache) {
	t.Helper()
	if len(c.Points()) != len(pts) {
		t.Fatalf("%s: %d points, want %d", label, len(c.Points()), len(pts))
	}
	for i := range pts {
		row := c.Row(i)
		if len(row) != len(pts) {
			t.Fatalf("%s: Row(%d) has %d entries, want %d", label, i, len(row), len(pts))
		}
		for j := range pts {
			want := k.Eval(pts[i], pts[j])
			if math.Float64bits(row[j]) != math.Float64bits(want) {
				t.Fatalf("%s: Row(%d)[%d] = %v (signbit %v), Eval %v (signbit %v)",
					label, i, j, row[j], math.Signbit(row[j]), want, math.Signbit(want))
			}
			if b := c.Row(j)[i]; math.Float64bits(row[j]) != math.Float64bits(b) {
				t.Fatalf("%s: Row(%d)[%d] = %v, Row(%d)[%d] = %v", label, i, j, row[j], j, i, b)
			}
		}
	}
}

// checkGrown grows a cache over pts[:split] — filled first when filled is
// true — by pts[split:mid], then by pts[mid:], and holds the result, and the
// bases, to Eval and their transposes bit for bit.
func checkGrown(t *testing.T, label string, k Kernel, pts []Point, split, mid int, filled bool) {
	t.Helper()
	label = fmt.Sprintf("%s, grown at %d and %d from a base filled %v", label, split, mid, filled)
	base := NewCache(k, pts[:split])
	if filled && split > 0 {
		base.Row(0)
	}
	once := base.Grow(pts[split:mid])
	if filled && mid > 0 {
		once.Row(0)
	}
	checkGramOf(t, label, k, pts, once.Grow(pts[mid:]))
	checkGramOf(t, label+": the base", k, pts[:split], base)
	checkGramOf(t, label+": the first growth", k, pts[:mid], once)
}

// checkGram holds a cache over pts, and caches grown to pts, to Eval and
// their transposes bit for bit: grown from 0, 1, n-1 and n points, then
// again halfway through the rest, from bases filled and never filled.
func checkGram(t *testing.T, label string, k Kernel, pts []Point) {
	t.Helper()
	n := len(pts)
	checkGramOf(t, label, k, pts, NewCache(k, pts))
	for _, split := range []int{0, 1, n - 1, n} {
		for _, filled := range []bool{true, false} {
			checkGrown(t, label, k, pts, split, split+(n-split)/2, filled)
		}
	}
}

// TestCacheMatchesDirectEvaluation pins the Gram matrix of every kernel and
// point mix that fills through EvalBatch, fresh and grown, to Eval bit for
// bit: RBF over dense points (four per trip, and the remainder) and over
// sparse points, Linear over dense and zero-dimension sparse points, and a
// kernel with no batched path.
func TestCacheMatchesDirectEvaluation(t *testing.T) {
	rng := linalg.NewRNG(31)
	logLike := make([]Point, 11)
	for i := range logLike {
		logLike[i] = NewSparse(logLikeVector(rng, 300, 20, i%2 == 0))
	}
	logLike[3] = NewSparse(sparse.New(300))
	for _, tc := range []struct {
		name string
		k    Kernel
		pts  []Point
	}{
		{"RBF, 10 dense points", RBF{Gamma: 0.4}, cachePoints(10, 3, 1)},
		{"RBF, 13 dense points of 36", RBF{Gamma: 0.03}, cachePoints(13, 36, 2)},
		{"RBF, one dense point", RBF{Gamma: 0.4}, cachePoints(1, 5, 4)},
		{"RBF, sparse points", RBF{Gamma: 0.02}, logLike},
		{"Linear, dense points", Linear{}, cachePoints(9, 5, 3)},
		{"Linear, zero-dimension points", Linear{}, []Point{NewSparse(sparse.New(0)), NewSparse(sparse.New(0))}},
		{"no batched path, dense points", evalOnly{RBF{Gamma: 0.4}}, cachePoints(7, 4, 5)},
	} {
		checkGram(t, tc.name, tc.k, tc.pts)
	}
}

// checkCacheRows holds the Gram matrix of a Linear cache over pts, fresh and
// grown, to Linear.Eval and its transpose bit for bit (checkGram), and checks
// that a fresh fill gathered its rows through the session index exactly when
// indexed is true.
func checkCacheRows(t *testing.T, label string, pts []Point, indexed bool) {
	t.Helper()
	c := NewCache(Linear{}, pts)
	c.Row(0)
	if (c.index != nil) != indexed {
		t.Fatalf("%s: session index built = %v, want %v", label, c.index != nil, indexed)
	}
	checkGram(t, label, Linear{}, pts)
}

// TestCacheRowMatchesPairwise pins the log modality's Gram matrix, gathered
// through the points inverted by session, to the pairwise merge join: at the
// benchmark's shapes (36–56 points over 1,500–3,500 sessions, rows of ~60, 4
// and 0.8 entries), with ±1 and non-unit values, points without an entry and
// repeated points, on a one-point cache, and on the shapes that fall back to
// EvalBatch, fresh and grown.
func TestCacheRowMatchesPairwise(t *testing.T) {
	rng := linalg.NewRNG(29)
	for trial := 0; trial < 4; trial++ {
		dim := 1500 + rng.Intn(2001)
		n := 36 + rng.Intn(21)
		unit := trial%2 == 0
		for _, mean := range []float64{60, 4, 0.8} {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = NewSparse(logLikeVector(rng, dim, mean, unit))
			}
			pts[rng.Intn(n)] = NewSparse(sparse.New(dim))
			pts[n-1] = pts[0]
			checkCacheRows(t, fmt.Sprintf("trial %d: %d points of ~%v entries in %d sessions, unit %v", trial, n, mean, dim, unit), pts, true)
		}
	}
	checkCacheRows(t, "one point", []Point{NewSparse(logLikeVector(rng, 1500, 60, false))}, true)
	checkCacheRows(t, "one point without an entry", []Point{NewSparse(sparse.New(1500))}, true)
	checkCacheRows(t, "dense points", cachePoints(12, 5, 3), false)
	checkCacheRows(t, "zero-dimension points", []Point{NewSparse(sparse.New(0)), NewSparse(sparse.New(0))}, false)

	// Points of two dimensions: no index, and the first Row panics where the
	// pairwise product does — also when a base of one dimension is grown by
	// a point of the other, whose pair with the base is Eval(new, old).
	mixed := []Point{NewSparse(logLikeVector(rng, 40, 6, true)), NewSparse(logLikeVector(rng, 41, 6, true))}
	panicOf := func(run func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run()
		return
	}
	c := NewCache(Linear{}, mixed)
	want := panicOf(func() { Linear{}.Eval(mixed[0], mixed[1]) })
	if got := panicOf(func() { c.Row(0) }); got != want || want == "<nil>" {
		t.Errorf("mixed dimensions: Row panics %q, Eval panics %q", got, want)
	}
	if c.index != nil {
		t.Error("mixed dimensions: session index built")
	}
	for _, order := range [][]Point{mixed, {mixed[1], mixed[0]}} {
		base := NewCache(Linear{}, order[:1])
		base.Row(0)
		want := panicOf(func() { Linear{}.Eval(order[1], order[0]) })
		if got := panicOf(func() { base.Grow(order[1:]).Row(0) }); got != want || want == "<nil>" {
			t.Errorf("grown across dimensions: Row panics %q, Eval panics %q", got, want)
		}
	}
}

// FuzzCacheRow builds a small set of sparse points of one dimension from the
// input bytes (values in sevenths, so products round; repeated and empty
// points) and holds every row of a Linear cache over it to the pairwise merge
// join and to its transpose, bit for bit: fresh, and grown twice, at drawn
// split points, from a base filled or not.
func FuzzCacheRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 2, 1, 0x80, 3, 9, 3, 0xf7, 0, 5, 4, 1, 7, 2, 7, 3, 0xf2})
	f.Add([]byte{15, 6, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		dim := 1 + int(next())%16
		pts := make([]Point, 1+int(next())%8)
		split := int(next()) % (len(pts) + 1)
		mid := split + int(next())%(len(pts)-split+1)
		filled := next()%2 == 0
		for i := range pts {
			if b := next(); i > 0 && b%4 == 0 {
				pts[i] = pts[int(b)%i]
				continue
			}
			v := sparse.New(dim)
			for n := int(next()) % (dim + 1); n > 0; n-- {
				v.Set(int(next())%dim, float64(int8(next()))/7)
			}
			pts[i] = NewSparse(v)
		}
		label := fmt.Sprintf("%d points of dimension %d", len(pts), dim)
		c := NewCache(Linear{}, pts)
		checkGramOf(t, label, Linear{}, pts, c)
		if c.index == nil {
			t.Fatalf("%s: no session index built", label)
		}
		checkGrown(t, label, Linear{}, pts, split, mid, filled)
	})
}
