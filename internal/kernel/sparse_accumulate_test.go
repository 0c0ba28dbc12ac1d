package kernel

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// sparseAccumulator binds LinearAccumulateSparse to one model's support
// vectors, the way svm.Model does: whatever is prepared per model is prepared
// here once, and the returned function is what the scan workers share.
func sparseAccumulator(svs []Point) func(coefs []float64, ys []Point, dst []float64) bool {
	ix := NewSparseSVIndex(svs)
	return func(coefs []float64, ys []Point, dst []float64) bool {
		return LinearAccumulateSparse(coefs, ix, ys, dst)
	}
}

// perSVAccumulate is the definition LinearAccumulateSparse is held to: one
// Linear.EvalBatch pass per support vector, folded into dst in
// support-vector order.
func perSVAccumulate(coefs []float64, svs, ys []Point, dst []float64) {
	buf := make([]float64, len(ys))
	for t, sv := range svs {
		Linear{}.EvalBatch(sv, ys, buf)
		for j, kv := range buf {
			dst[j] += coefs[t] * kv
		}
	}
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

// testLinearAccumulateSparseAtWorkloadShapes is the seeded half of
// TestLinearAccumulateSparseMatchesPerSV: models and batches shaped like the
// benchmark's log modality — a few thousand sessions, one to 64 support
// vectors of which one is repeated and one has no entry, rows from 60
// entries down to mostly none, batches from one row to a scan range — scored
// through one shared accumulator by four goroutines at once, every score
// bit-equal to the per-SV pass.
func testLinearAccumulateSparseAtWorkloadShapes(t *testing.T) {
	rng := linalg.NewRNG(24)
	for trial := 0; trial < 6; trial++ {
		dim := 1500 + rng.Intn(2001)
		nsv := 2 + rng.Intn(63)
		if trial == 1 {
			nsv = 1
		}
		unit := trial%2 == 0
		svs := make([]Point, nsv)
		for i := range svs {
			svs[i] = NewSparse(logLikeVector(rng, dim, 60, unit))
		}
		if nsv > 1 {
			svs[rng.Intn(nsv)] = NewSparse(sparse.New(dim))
		}
		if nsv > 2 {
			svs[nsv-1] = svs[0]
		}
		coefs := make([]float64, nsv)
		for i := range coefs {
			coefs[i] = rng.Range(-1, 1)
			if trial%3 == 0 {
				coefs[i] = -math.Abs(coefs[i]) // a zero sum of these is -0
			}
		}
		accumulate := sparseAccumulator(svs)
		for _, mean := range []float64{60, 4, 0.8} {
			for _, rows := range []int{1, 3, 2048} {
				ys := make([]Point, rows)
				for j := range ys {
					ys[j] = NewSparse(logLikeVector(rng, dim, mean, unit))
				}
				for _, bias := range []float64{0, math.Copysign(0, -1), 0.37} {
					label := fmt.Sprintf("trial %d: dim %d, %d SVs, %d rows of ~%v entries, bias %v (signbit %v)",
						trial, dim, nsv, rows, mean, bias, math.Signbit(bias))
					want := make([]float64, rows)
					for j := range want {
						want[j] = bias
					}
					got := append([]float64(nil), want...)
					perSVAccumulate(coefs, svs, ys, want)
					// Every worker scores the whole batch into a destination of
					// its own: what they share is the accumulator.
					var wg sync.WaitGroup
					results := make([][]float64, 4)
					for w := range results {
						dst := append([]float64(nil), got...)
						results[w] = dst
						wg.Add(1)
						go func() {
							defer wg.Done()
							if !accumulate(coefs, ys, dst) {
								t.Errorf("%s: refused", label)
							}
						}()
					}
					wg.Wait()
					for _, dst := range results {
						checkParity(t, label, dst, want)
					}
				}
			}
		}
	}
}

// testLinearAccumulateSparseOddRows pins what a row that is not a sparse
// vector of the model's dimension does in the middle of a batch: what it
// does to the per-SV pass, which is the same panic.
func testLinearAccumulateSparseOddRows(t *testing.T) {
	const dim = 40
	rng := linalg.NewRNG(7)
	svs := make([]Point, 5)
	for i := range svs {
		svs[i] = NewSparse(logLikeVector(rng, dim, 6, true))
	}
	coefs := []float64{0.5, -1, 0.25, -0.75, 1}
	panicOf := func(run func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run()
		return
	}
	for name, odd := range map[string]Point{
		"another dimension": NewSparse(logLikeVector(rng, dim+3, 6, true)),
		"dense":             Dense(make(linalg.Vector, dim)),
	} {
		ys := make([]Point, 9)
		for j := range ys {
			ys[j] = NewSparse(logLikeVector(rng, dim, 6, true))
		}
		ys[4] = odd
		want := panicOf(func() { perSVAccumulate(coefs, svs, ys, make([]float64, len(ys))) })
		got := panicOf(func() { sparseAccumulator(svs)(coefs, ys, make([]float64, len(ys))) })
		if got != want || want == "<nil>" {
			t.Errorf("%s row: panic %q, per-SV pass panics %q", name, got, want)
		}
	}
}

// testLinearAccumulateSparseNonFiniteCoefficients pins the refusal of a
// model with a coefficient that is not finite. The per-SV pass turns an
// empty row's +0 dot times ±Inf or NaN into NaN, which the empty-row skip
// would not: the accumulate must decline, leaving dst to that pass.
func testLinearAccumulateSparseNonFiniteCoefficients(t *testing.T) {
	const dim = 40
	rng := linalg.NewRNG(5)
	svs := []Point{NewSparse(logLikeVector(rng, dim, 6, true)), NewSparse(logLikeVector(rng, dim, 6, true))}
	ys := make([]Point, 4)
	for j := range ys {
		ys[j] = NewSparse(sparse.New(dim))
	}
	for _, coefs := range [][]float64{{math.Inf(1), 0.5}, {0.5, math.Inf(-1)}, {math.NaN(), 0.5}} {
		want := []float64{0.25, 0.25, 0.25, 0.25}
		got := append([]float64(nil), want...)
		if sparseAccumulator(svs)(coefs, ys, got) {
			t.Errorf("coefficients %v: accepted", coefs)
		}
		checkParity(t, fmt.Sprintf("coefficients %v (refused)", coefs), got, want)
		perSVAccumulate(coefs, svs, ys, want)
		if !math.IsNaN(want[0]) {
			t.Errorf("coefficients %v: the per-SV pass gives %v on an empty row, want NaN", coefs, want[0])
		}
	}
}

// FuzzLinearAccumulateSparse builds a small sparse model and batch from the
// input bytes (values in sevenths, so products round; zero coefficients and
// biases of either sign, so the fold's ±0 terms show; coefficients of ±Inf
// and NaN, which must be refused) and holds LinearAccumulateSparse to the
// per-SV pass, bit for bit.
func FuzzLinearAccumulateSparse(f *testing.F) {
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
		bias := []float64{0, math.Copysign(0, -1), 0.5, -3}[next()%4]
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
		want := make([]float64, rows)
		for j := range want {
			want[j] = bias
		}
		got := append([]float64(nil), want...)
		label := fmt.Sprintf("dim %d, %d SVs, coefficients %v, bias %v (signbit %v)", dim, nsv, coefs, bias, math.Signbit(bias))
		if !finite {
			if sparseAccumulator(svs)(coefs, ys, got) {
				t.Fatalf("%s: accepted", label)
			}
			checkParity(t, label+" (refused)", got, want)
			return
		}
		perSVAccumulate(coefs, svs, ys, want)
		if !sparseAccumulator(svs)(coefs, ys, got) {
			t.Fatalf("%s: refused %d rows", label, rows)
		}
		checkParity(t, label, got, want)
	})
}

// BenchmarkLinearAccumulateSparse times one log-side decision pass over a
// 2,048-row scan range against 48 support vectors of ~60 entries in 2,500
// sessions, at the three row densities of the benchmark's collections (an
// image with a log history, a sparsely covered one, a mostly uncovered one),
// in ns per row. The bias is non-zero, so the rows without an entry are
// skipped as they are in a scan.
func BenchmarkLinearAccumulateSparse(b *testing.B) {
	const dim, nsv, rows = 2500, 48, 2048
	rng := linalg.NewRNG(9)
	svs := make([]Point, nsv)
	coefs := make([]float64, nsv)
	for i := range svs {
		svs[i] = NewSparse(logLikeVector(rng, dim, 60, true))
		coefs[i] = rng.Range(-1, 1)
	}
	accumulate := sparseAccumulator(svs)
	for _, mean := range []float64{60, 4, 0.8} {
		ys := make([]Point, rows)
		for j := range ys {
			ys[j] = NewSparse(logLikeVector(rng, dim, mean, true))
		}
		dst := make([]float64, rows)
		b.Run(fmt.Sprintf("entries=%v", mean), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0.25
				}
				if !accumulate(coefs, ys, dst) {
					b.Fatal("refused")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
