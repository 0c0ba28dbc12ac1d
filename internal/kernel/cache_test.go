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

// TestCacheMatchesDirectEvaluation pins the RBF rows, which RBF.EvalBatch
// fills with Eval's arithmetic, to Eval bit for bit.
func TestCacheMatchesDirectEvaluation(t *testing.T) {
	pts := cachePoints(10, 3, 1)
	k := RBF{Gamma: 0.4}
	c := NewCache(k, pts)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := k.Eval(pts[i], pts[j])
			if got := c.Row(i)[j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cache Row(%d)[%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// checkCacheRows holds every Row(i)[j] of a Linear cache over pts to
// Linear.Eval(pts[i], pts[j]) and to Row(j)[i], bit for bit, and checks that
// the rows were gathered through the session index exactly when indexed is
// true.
func checkCacheRows(t *testing.T, label string, pts []Point, indexed bool) {
	t.Helper()
	c := NewCache(Linear{}, pts)
	if (c.index != nil) != indexed {
		t.Fatalf("%s: session index built = %v, want %v", label, c.index != nil, indexed)
	}
	for i := range pts {
		row := c.Row(i)
		for j := range pts {
			want := Linear{}.Eval(pts[i], pts[j])
			if math.Float64bits(row[j]) != math.Float64bits(want) {
				t.Fatalf("%s: Row(%d)[%d] = %v (signbit %v), Eval %v (signbit %v)",
					label, i, j, row[j], math.Signbit(row[j]), want, math.Signbit(want))
			}
		}
	}
	for i := range pts {
		for j := range pts {
			if a, b := c.Row(i)[j], c.Row(j)[i]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: Row(%d)[%d] = %v, Row(%d)[%d] = %v", label, i, j, a, j, i, b)
			}
		}
	}
}

// TestCacheRowMatchesPairwise pins the log modality's Gram rows, gathered
// through the points inverted by session, to the pairwise merge join: at the
// benchmark's shapes (36–56 points over 1,500–3,500 sessions, rows of ~60, 4
// and 0.8 entries), with ±1 and non-unit values, points without an entry and
// repeated points, on a one-point cache, and on the shapes that fall back to
// EvalBatch.
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

	// Points of two dimensions: no index, and a row panics where the
	// pairwise product does.
	mixed := []Point{NewSparse(logLikeVector(rng, 40, 6, true)), NewSparse(logLikeVector(rng, 41, 6, true))}
	if NewCache(Linear{}, mixed).index != nil {
		t.Fatal("mixed dimensions: session index built")
	}
	panicOf := func(run func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run()
		return
	}
	want := panicOf(func() { Linear{}.Eval(mixed[0], mixed[1]) })
	if got := panicOf(func() { NewCache(Linear{}, mixed).Row(0) }); got != want || want == "<nil>" {
		t.Errorf("mixed dimensions: Row panics %q, Eval panics %q", got, want)
	}
}

// FuzzCacheRow builds a small set of sparse points of one dimension from the
// input bytes (values in sevenths, so products round; repeated and empty
// points) and holds every row of a Linear cache over it to the pairwise merge
// join and to its transpose, bit for bit.
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
		checkCacheRows(t, fmt.Sprintf("%d points of dimension %d", len(pts), dim), pts, true)
	})
}
