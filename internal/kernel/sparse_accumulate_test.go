package kernel

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// refWeights is the definition LinearWeights is held to, written straight:
// w_s sums float64(coefs[t]·v_ts) over the support vectors t that carry
// session s, in ascending t from +0, and w holds exactly the sessions some
// support vector carries, ascending, in the support vectors' dimension (0
// for a model of none).
func refWeights(coefs []float64, svs []Point) sparse.Vector {
	dim := 0
	if len(svs) > 0 {
		dim = svs[0].(Sparse).Dim
	}
	sums, carried := make([]float64, dim), make([]bool, dim)
	for t, sv := range svs {
		for _, e := range sv.(Sparse).Entries {
			sums[e.Index] += float64(coefs[t] * e.Value)
			carried[e.Index] = true
		}
	}
	w := sparse.Vector{Dim: dim}
	for s, ok := range carried {
		if ok {
			w.Entries = append(w.Entries, sparse.Entry{Index: s, Value: sums[s]})
		}
	}
	return w
}

// refDecisions is the definition LinearAccumulateWeights is held to: row j
// starts from dst[j] and adds float64(w_s·y_s) for each of its sessions s
// that w holds, in ascending order.
func refDecisions(w sparse.Vector, ys []Point, dst []float64) {
	ws := make(map[int]float64, len(w.Entries))
	for _, e := range w.Entries {
		ws[e.Index] = e.Value
	}
	for j, y := range ys {
		for _, e := range y.(Sparse).Entries {
			if v, ok := ws[e.Index]; ok {
				dst[j] += float64(v * e.Value)
			}
		}
	}
}

// checkWeights holds a built weight vector to refWeights, bit for bit.
func checkWeights(label string, got, want sparse.Vector) error {
	if got.Dim != want.Dim || len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%s: weights of %d sessions holding %d, want %d holding %d", label, got.Dim, len(got.Entries), want.Dim, len(want.Entries))
	}
	for k, e := range want.Entries {
		if g := got.Entries[k]; g.Index != e.Index || !sameBits(g.Value, e.Value) {
			return fmt.Errorf("%s: weight %d is session %d = %.17g, want session %d = %.17g", label, k, g.Index, g.Value, e.Index, e.Value)
		}
	}
	return nil
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

// cutRanges cuts [0, n) at the given points (clamped to [0, n], repeats
// giving empty ranges).
func cutRanges(n int, cuts ...int) [][2]int {
	var out [][2]int
	lo := 0
	for _, c := range append(cuts, n) {
		c = max(lo, min(n, c))
		out = append(out, [2]int{lo, c})
		lo = c
	}
	return out
}

// walkRanges walks w over a copy of dst0 range by range, empty ranges at the
// start, middle and end included (they change nothing), and returns the
// scores.
func walkRanges(w sparse.Vector, ix *SparseSVIndex, dst0 []float64, ranges [][2]int) []float64 {
	got := slices.Clone(dst0)
	n := len(dst0)
	for _, r := range append([][2]int{{0, 0}, {n / 2, n / 2}, {n, n}}, ranges...) {
		LinearAccumulateWeights(w, ix, r[0], got[r[0]:r[1]])
	}
	return got
}

// buildWeights builds the model's weights and holds them to want.
func buildWeights(coefs []float64, svs []Point, want sparse.Vector) (sparse.Vector, error) {
	w, ok := LinearWeights(nil, coefs, svs)
	if !ok {
		return w, fmt.Errorf("the build refused the model")
	}
	return w, checkWeights("build", w, want)
}

// checkWeightsMatchDefinition builds the weights of the model, walks them
// over ys through an index over them range by range, and holds the weights
// and every row of the result to the definition from the same initial dst0,
// bit for bit; so is every row scored from its own column
// (checkRowDecisions).
func checkWeightsMatchDefinition(t *testing.T, label string, coefs []float64, svs, ys []Point, ix *SparseSVIndex, dst0 []float64, ranges [][2]int) {
	t.Helper()
	wantW := refWeights(coefs, svs)
	want := slices.Clone(dst0)
	refDecisions(wantW, ys, want)
	w, err := buildWeights(coefs, svs, wantW)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkParity(t, label, walkRanges(w, ix, dst0, ranges), want)
	checkRowDecisions(t, label, new(WeightTable), w, ys, dst0, want)
}

// checkRowDecisions holds WeightTable.Decision — a row scored from its own
// column against w scattered into tab — to the walk's definition: row j
// from dst0[j] scores want[j], bit for bit. Once unloaded, the table must
// add nothing to any row.
func checkRowDecisions(t *testing.T, label string, tab *WeightTable, w sparse.Vector, ys []Point, dst0, want []float64) {
	t.Helper()
	got := make([]float64, len(ys))
	score := func() {
		for j, y := range ys {
			got[j] = tab.Decision(dst0[j], *y.(Sparse).Vector)
		}
	}
	tab.Load(w)
	score()
	tab.Unload(w)
	checkParity(t, label+", rows from their columns", got, want)
	score()
	checkParity(t, label+", rows from their columns after Unload", got, dst0)
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

// FuzzLinearAccumulateWeights builds a small sparse model and collection
// from the input bytes (values in sevenths, so products round; zero
// coefficients and destinations of either sign, ±Inf and NaN, so signed
// zeros show; coefficients of ±Inf and NaN, which reach only the rows of the
// sessions their support vectors carry), cuts the collection into two ranges
// anywhere, and holds the log half — the weight build, the walk and each row
// scored from its own column (WeightTable) — to its definition, bit for bit.
func FuzzLinearAccumulateWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 1, 0x80, 0x80, 0x80, 1, 3, 9, 1, 3, 0xf7}) // negative coefficients, -0 bias, rows without entries
	f.Add([]byte{3, 0, 0, 1, 5, 0, 0, 0, 2, 1, 7, 2, 7, 2, 1, 14, 2, 0xf2, 1, 1, 21})
	f.Add([]byte{15, 3, 8, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add([]byte{3, 1, 3, 2, 0x7f, 5}) // +Inf coefficient, rows without entries, nonzero bias
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
		dst0 := make([]float64, rows)
		for j := range dst0 {
			dst0[j] = bias
		}
		label := fmt.Sprintf("dim %d, %d SVs, coefficients %v, bias %v (signbit %v), cut at %d", dim, nsv, coefs, bias, math.Signbit(bias), cut)
		checkWeightsMatchDefinition(t, label, coefs, svs, ys, NewSparseSVIndex(ys), dst0, cutRanges(rows, cut))
	})
}

// TestLinearWeightsCostWhatTheyCarry: a build costs the sessions the model
// carries, not the log's. A model of 40 support vectors carrying about 40
// sessions of a 100,000-session log allocates its weights and nothing more
// once the pooled accumulator is warm on the P that builds, and nothing at
// all into the entries of a vector it built before.
func TestLinearWeightsCostWhatTheyCarry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random and allocates beside the code under test")
	}
	const dim, nsv = 100000, 40
	rng := linalg.NewRNG(3)
	coefs, svs := make([]float64, nsv), make([]Point, nsv)
	for i := range svs {
		v := sparse.New(dim)
		v.Set(rng.Intn(dim), 1)
		svs[i], coefs[i] = NewSparse(v), rng.Range(-1, 1)
	}
	// The warm-up leaves the accumulator in its P's private pool slot, which
	// a build on another P cannot take: the measurement runs on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, ok := LinearWeights(nil, coefs, svs) // warms the pool
	if !ok {
		t.Fatal("the build refused the model")
	}
	own := float64(16 * len(w.Entries))
	// No collection may empty the pool between the warm-up and the runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		LinearWeights(nil, coefs, svs)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, float64(after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("weights of %d sessions (%.0f bytes) of %d: %d allocations, %.0f bytes per build", len(w.Entries), own, dim, allocs, bytes)
	if allocs > 1 || bytes > 2*own {
		t.Errorf("a build allocates %d objects and %.0f bytes, want at most 1 and %.0f (twice the weights' own)", allocs, bytes, 2*own)
	}
	if reused := testing.AllocsPerRun(runs, func() { w, _ = LinearWeights(w.Entries, coefs, svs) }); reused != 0 {
		t.Errorf("a build into a built vector's entries allocates %.0f objects, want none", reused)
	}
}

// BenchmarkLogHalf times the scan's log half over one 2,048-row range, the
// weight build plus the walk, in ns per row, with the build's allocations:
// 48 support vectors of ~60 entries in 2,500 sessions at the three row
// densities of the benchmark's collections (an image with a log history, a
// sparsely covered one, a mostly uncovered one), and ingest-commit's shape,
// 20 support vectors of ~8 entries in 8,000 sessions over rows of ~8.
func BenchmarkLogHalf(b *testing.B) {
	const rows = 2048
	rng := linalg.NewRNG(9)
	model := func(dim, nsv int, mean float64) ([]float64, []Point) {
		coefs, svs := make([]float64, nsv), make([]Point, nsv)
		for i := range svs {
			svs[i], coefs[i] = NewSparse(logLikeVector(rng, dim, mean, true)), rng.Range(-1, 1)
		}
		return coefs, svs
	}
	run := func(name string, dim int, coefs []float64, svs []Point, mean float64) {
		ys := make([]Point, rows)
		for j := range ys {
			ys[j] = NewSparse(logLikeVector(rng, dim, mean, true))
		}
		ix := NewSparseSVIndex(ys)
		dst := make([]float64, rows)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			LinearWeights(nil, coefs, svs) // warms the pooled accumulator
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = 0.25
				}
				w, ok := LinearWeights(nil, coefs, svs)
				if !ok {
					b.Fatal("refused")
				}
				LinearAccumulateWeights(w, ix, 0, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
	coefs, svs := model(2500, 48, 60)
	for _, mean := range []float64{60, 4, 0.8} {
		run(fmt.Sprintf("entries=%v", mean), 2500, coefs, svs, mean)
	}
	coefs, svs = model(8000, 20, 8)
	run("ingest-commit", 8000, coefs, svs, 8)
}
