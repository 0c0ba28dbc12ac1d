package kernel

import (
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
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

func TestCacheMatchesDirectEvaluation(t *testing.T) {
	pts := cachePoints(10, 3, 1)
	k := RBF{Gamma: 0.4}
	c := NewCache(k, pts)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := k.Eval(pts[i], pts[j])
			if got := c.Row(i)[j]; math.Abs(got-want) > 1e-15 {
				t.Fatalf("cache Row(%d)[%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}
