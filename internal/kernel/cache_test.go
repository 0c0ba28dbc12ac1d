package kernel

import (
	"fmt"
	"math"
	"testing"

	"lrfcsvm/internal/sparse"
)

// evalOnly hides RBF's batched path, so a cache fills its rows through Eval.
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
	base := newCache(k, pts[:split])
	if filled && split > 0 {
		base.Row(0)
	}
	once := base.Grow(new(Cache), pts[split:mid])
	if filled && mid > 0 {
		once.Row(0)
	}
	checkGramOf(t, label, k, pts, once.Grow(new(Cache), pts[mid:]))
	checkGramOf(t, label+": the base", k, pts[:split], base)
	checkGramOf(t, label+": the first growth", k, pts[:mid], once)
}

// checkGram holds a cache over pts, and caches grown to pts, to Eval and
// their transposes bit for bit: grown from 0, 1, n-1 and n points, then
// again halfway through the rest, from bases filled and never filled.
func checkGram(t *testing.T, label string, k Kernel, pts []Point) {
	t.Helper()
	n := len(pts)
	checkGramOf(t, label, k, pts, newCache(k, pts))
	for _, split := range []int{0, 1, n - 1, n} {
		for _, filled := range []bool{true, false} {
			checkGrown(t, label, k, pts, split, split+(n-split)/2, filled)
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
		c := newCache(Linear{}, pts)
		checkGramOf(t, label, Linear{}, pts, c)
		if c.index == nil {
			t.Fatalf("%s: no session index built", label)
		}
		checkGrown(t, label, Linear{}, pts, split, mid, filled)
	})
}

// newCache returns the Gram matrix of points under k, a new cache bound as a
// solver binds its own (Cache.Reset).
func newCache(k Kernel, points []Point) *Cache {
	c := new(Cache)
	c.Reset(k, points)
	return c
}
