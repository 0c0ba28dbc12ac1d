package kernel

import (
	"fmt"
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// perSVAccumulate is the definition LinearAccumulateSessions is held to: one
// Linear.EvalBatch pass per support vector over every row, folded into dst in
// support-vector order.
func perSVAccumulate(coefs []float64, svs, ys []Point, dst []float64) {
	buf := make([]float64, len(ys))
	for t, sv := range svs {
		Linear{}.EvalBatch(sv, ys, buf)
		for j, kv := range buf {
			dst[j] += float64(coefs[t] * kv)
		}
	}
}

// accumulateRange runs LinearAccumulateSessions over the rows [lo, hi) into
// dst[lo:hi] through row, a buffer the caller keeps between calls as a scan
// worker keeps its arena's, and reports an error when the call leaves row
// holding anything but +0.
func accumulateRange(coefs []float64, svs []Point, ix *SparseSVIndex, lo, hi int, dst []float64, row *[]float64) (bool, error) {
	if cap(*row) < hi-lo {
		*row = make([]float64, hi-lo)
	}
	buf := (*row)[:hi-lo]
	ok := LinearAccumulateSessions(coefs, svs, ix, lo, dst[lo:hi], buf)
	for r, v := range buf {
		if math.Float64bits(v) != 0 {
			return ok, fmt.Errorf("rows [%d,%d) leave the row buffer holding %v at %d", lo, hi, v, r)
		}
	}
	return ok, nil
}

// splitRanges cuts [0, n) into consecutive ranges of 1 to maxLen rows, the
// way a scan hands shards and their tails to its workers.
func splitRanges(rng *linalg.RNG, n, maxLen int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(maxLen))
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// scoreBySessions scores a copy of dst0 range by range through one row
// buffer, empty ranges at the start, middle and end included (they change
// nothing), and returns the scores, or the first refusal or row buffer not
// left +0.
func scoreBySessions(coefs []float64, svs []Point, ix *SparseSVIndex, dst0 []float64, ranges [][2]int) ([]float64, error) {
	got := append([]float64(nil), dst0...)
	n := len(dst0)
	ranges = append([][2]int{{0, 0}, {n / 2, n / 2}, {n, n}}, ranges...)
	var row []float64
	for _, r := range ranges {
		ok, err := accumulateRange(coefs, svs, ix, r[0], r[1], got, &row)
		if err == nil && !ok {
			err = fmt.Errorf("rows [%d,%d) refused", r[0], r[1])
		}
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// checkSessionsMatchPerSV scores ys through an index over them, range by
// range, and holds every row of the result to the per-SV pass from the same
// initial dst0, bit for bit.
func checkSessionsMatchPerSV(t *testing.T, label string, coefs []float64, svs, ys []Point, ix *SparseSVIndex, dst0 []float64, ranges [][2]int) {
	t.Helper()
	want := append([]float64(nil), dst0...)
	perSVAccumulate(coefs, svs, ys, want)
	got, err := scoreBySessions(coefs, svs, ix, dst0, ranges)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkParity(t, label, got, want)
}

// logLikeVector draws a sparse vector of the given dimension with about mean
// entries (exponentially distributed, at most 100): ±1 judgments when unit,
// reals whose products round otherwise.
func logLikeVector(rng *linalg.RNG, dim int, mean float64, unit bool) *sparse.Vector {
	v := sparse.New(dim)
	n := int(-mean * math.Log(1-rng.Float64()))
	if n > 100 {
		n = 100
	}
	for i := 0; i < n; i++ {
		x := rng.Range(-1, 1)
		if unit {
			x = math.Copysign(1, x)
		}
		v.Set(rng.Intn(dim), x)
	}
	return v
}

// FuzzLinearAccumulateSessions builds a small sparse model and collection
// from the input bytes (values in sevenths, so products round; zero
// coefficients and destinations of either sign, ±Inf and NaN, so the fold's
// ±0 terms show; coefficients of ±Inf and NaN, which must be refused), cuts
// the collection into two ranges anywhere, and holds LinearAccumulateSessions
// to the per-SV pass, bit for bit, with the row buffer +0 after every call.
func FuzzLinearAccumulateSessions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 1, 0x80, 0x80, 0x80, 1, 3, 9, 1, 3, 0xf7}) // negative coefficients, -0 bias, rows without entries
	f.Add([]byte{3, 0, 0, 1, 5, 0, 0, 0, 2, 1, 7, 2, 7, 2, 1, 14, 2, 0xf2, 1, 1, 21})
	f.Add([]byte{15, 3, 8, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add([]byte{3, 1, 3, 2, 0x7f, 5}) // +Inf coefficient, rows without entries, nonzero bias: refused
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
		nsv := 1 + int(next())%5
		rows := 1 + int(next())%12
		bias := []float64{0, math.Copysign(0, -1), 0.5, -3, math.NaN(), math.Inf(1), math.Inf(-1), 0.25}[next()%8]
		vector := func() Point {
			v := sparse.New(dim)
			for n := int(next()) % (dim + 1); n > 0; n-- {
				v.Set(int(next())%dim, float64(int8(next()))/7)
			}
			return NewSparse(v)
		}
		coefs := make([]float64, nsv)
		finite := true
		for i := range coefs {
			switch b := int8(next()); b {
			case math.MaxInt8:
				coefs[i] = math.Inf(1)
			case -math.MaxInt8:
				coefs[i] = math.Inf(-1)
			case math.MaxInt8 - 1:
				coefs[i] = math.NaN()
			default:
				coefs[i] = float64(b) / 7
			}
			finite = finite && !math.IsInf(coefs[i], 0) && !math.IsNaN(coefs[i])
		}
		svs := make([]Point, nsv)
		for i := range svs {
			svs[i] = vector()
		}
		ys := make([]Point, rows)
		for j := range ys {
			ys[j] = vector()
		}
		cut := int(next()) % (rows + 1)
		ix := NewSparseSVIndex(ys)
		dst0 := make([]float64, rows)
		for j := range dst0 {
			dst0[j] = bias
		}
		label := fmt.Sprintf("dim %d, %d SVs, coefficients %v, bias %v (signbit %v), cut at %d", dim, nsv, coefs, bias, math.Signbit(bias), cut)
		if !finite {
			got := append([]float64(nil), dst0...)
			var row []float64
			if ok, err := accumulateRange(coefs, svs, ix, 0, rows, got, &row); ok || err != nil {
				t.Fatalf("%s: accepted %v, %v", label, ok, err)
			}
			checkParity(t, label+" (refused)", got, dst0)
			return
		}
		checkSessionsMatchPerSV(t, label, coefs, svs, ys, ix, dst0, [][2]int{{0, cut}, {cut, rows}})
	})
}

// BenchmarkLinearAccumulateSessions times one log-side decision pass over a
// 2,048-row scan range against 48 support vectors of ~60 entries in 2,500
// sessions, at the three row densities of the benchmark's collections (an
// image with a log history, a sparsely covered one, a mostly uncovered one),
// in ns per row. The bias is non-zero, so only the rows a support vector
// reaches are folded, as in a scan.
func BenchmarkLinearAccumulateSessions(b *testing.B) {
	const dim, nsv, rows = 2500, 48, 2048
	rng := linalg.NewRNG(9)
	svs := make([]Point, nsv)
	coefs := make([]float64, nsv)
	for i := range svs {
		svs[i] = NewSparse(logLikeVector(rng, dim, 60, true))
		coefs[i] = rng.Range(-1, 1)
	}
	for _, mean := range []float64{60, 4, 0.8} {
		ys := make([]Point, rows)
		for j := range ys {
			ys[j] = NewSparse(logLikeVector(rng, dim, mean, true))
		}
		ix := NewSparseSVIndex(ys)
		dst := make([]float64, rows)
		row := make([]float64, rows)
		b.Run(fmt.Sprintf("entries=%v", mean), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0.25
				}
				if !LinearAccumulateSessions(coefs, svs, ix, 0, dst, row) {
					b.Fatal("refused")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
