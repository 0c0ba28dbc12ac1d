package kernel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// TestKernelsMatchReference draws shapes from a seed and holds every batched
// primitive of the package to its straight-line definition, Float64bits (two
// NaNs are equal: a propagated NaN's payload depends on operand order, which
// the contract does not fix):
//
//   - the tile (rbfTiles) on every backend this build and CPU have,
//     whole and shard by shard from several goroutines, and RBF.AccumulateSet,
//     to accumulateRBFScalar;
//   - DenseSet.SquaredDistancesInto to linalg's norm expansion, and every
//     backend's row dot to linalg.Matrix.MulVecInto;
//   - RBF.EvalBatch to per-pair Eval, and every kernel's EvalSet and
//     GramSet to the same expansion per pair;
//   - LinearWeights and LinearAccumulateWeights, the log half's weight build
//     and its walk range by range through one shared index, and
//     WeightTable.Decision row by row, to their straight-line definition
//     (refWeights, refDecisions);
//   - Cache.Row, fresh and grown, to per-pair Eval and its transpose;
//   - every backend's exp to element-wise expOne;
//   - DenseSet.Grow and ShardedSet.Grow to a rebuild over the same points.
//
// The draws straddle what the code cuts at: rows 0…2,100 across the 64-row
// tile and the shard sizes, dimensions under four and odd, odd and even
// support-vector counts, sparse vectors down to none, NaN, ±Inf, ±0 and
// overflowing rows, and grow split points 0, 1, n−1 and n. A seed is all that
// replays a subtest:
// go test -run 'TestKernelsMatchReference/^seed=7$' ./internal/kernel
func TestKernelsMatchReference(t *testing.T) {
	seeds := uint64(128)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runKernelDriver(t, seed) })
	}
}

// Each test below pins a regime, a shape the driver must keep reaching, to a
// seed that reaches it.
func TestBackendParity(t *testing.T)                         { kernelPin(t, "tile-tail", 9) }
func TestBackendParitySharded(t *testing.T)                  { kernelPin(t, "tile-sharded", 1) }
func TestBackendParitySpecialValues(t *testing.T)            { kernelPin(t, "tile-special", 1) }
func TestAccumulateSetMatchesOracle(t *testing.T)            { kernelPin(t, "tile-window-mixed", 1) }
func TestAccumulateSetMatchesPerSVAccumulation(t *testing.T) { kernelPin(t, "tile-clamped", 2) }
func TestSquaredDistancesMatchLinalg(t *testing.T)           { kernelPin(t, "distances-special", 1) }
func TestEvalBatchMatchesScalar(t *testing.T)                { kernelPin(t, "eval-sparse", 1) }
func TestEvalSetMatchesScalar(t *testing.T)                  { kernelPin(t, "eval-set", 4) }
func TestGramSetMatchesGram(t *testing.T)                    { kernelPin(t, "eval-gram", 1) }
func TestCacheMatchesDirectEvaluation(t *testing.T)          { kernelPin(t, "cache-rbf-sparse", 8) }
func TestCacheRowMatchesPairwise(t *testing.T)               { kernelPin(t, "cache-linear-indexed", 10) }
func TestExpLanesBitParity(t *testing.T)                     { kernelPin(t, "exp-special-lane", 1) }
func TestExpSweepMatchesExpOne(t *testing.T)                 { kernelPin(t, "exp-out-of-window", 2) }
func TestDenseSetGrowMatchesRebuild(t *testing.T)            { kernelPin(t, "grow-split-last", 6) }

// TestLinearWeightsMatchDefinition pins the log half's regimes, one subtest
// each: the walk's, and those of a row scored from its own column against
// the weights scattered (WeightTable), which must give the walk's bits.
func TestLinearWeightsMatchDefinition(t *testing.T) {
	for _, c := range []struct {
		name, regime string
		seed         uint64
	}{
		{"workload shapes", "sessions-uncovered-tail", 4},
		{"special values", "sessions-signed-zero", 3},
		{"odd support vectors", "sessions-odd-sv", 1},
		{"non-finite coefficients", "sessions-non-finite", 36},
		{"empty model", "sessions-empty-model", 14},
		{"row from its column: empty column", "rows-empty-column", 3},
		{"row from its column: no session of w", "rows-outside-w", 3},
		{"row from its column: non-finite weights", "rows-non-finite", 36},
		{"row from its column: -0 bias", "rows-signed-zero", 3},
	} {
		t.Run(c.name, func(t *testing.T) { kernelPin(t, c.regime, c.seed) })
	}
}

func kernelPin(t *testing.T, regime string, seed uint64) {
	t.Helper()
	seen := runKernelDriver(t, seed)
	if !seen[regime] {
		var reached []string
		for r, ok := range seen {
			if ok {
				reached = append(reached, r)
			}
		}
		slices.Sort(reached)
		t.Errorf("seed %d no longer reaches %s, only %v", seed, regime, reached)
	}
}

// runKernelDriver runs one seed's draws and returns the regimes they reached.
func runKernelDriver(t *testing.T, seed uint64) map[string]bool {
	rng := linalg.NewRNG(seed)
	seen := map[string]bool{}
	checkTileAndDistances(t, rng, seen)
	checkEvalPaths(t, rng, seen)
	checkSessions(t, rng, seen)
	checkCaches(t, rng, seen)
	checkExpLanes(t, rng, seen)
	checkGrowth(t, rng, seen)
	checkBoundedTile(t, rng, seen)
	return seen
}

func pick[T any](rng *linalg.RNG, xs ...T) T { return xs[rng.Intn(len(xs))] }

func drawVectors(rng *linalg.RNG, n, dim int) []linalg.Vector {
	vs := make([]linalg.Vector, n)
	for i := range vs {
		vs[i] = make(linalg.Vector, dim)
		for d := range vs[i] {
			vs[i][d] = rng.Normal(0, 1)
		}
	}
	return vs
}

// drawRows draws a row count around the cuts: the four- and eight-row
// groups, the tile, a shard and the benchmark's scan range.
func drawRows(rng *linalg.RNG) int {
	if rng.Bool(0.3) {
		return rng.Intn(2101)
	}
	return pick(rng, 0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 67, 68, 128, 129, 192, 1024, 2047, 2048, 2049, 2100)
}

// poison writes special values into a few rows: NaN, ±Inf, ±0 components and
// squares that overflow.
func poison(rng *linalg.RNG, vs []linalg.Vector) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e200, -1e200}
	for n := 1 + rng.Intn(6); n > 0 && len(vs) > 0; n-- {
		v := vs[rng.Intn(len(vs))]
		v[rng.Intn(len(v))] = pick(rng, specials...)
	}
}

func checkTileAndDistances(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	rows, dim, nsv := drawRows(rng), pick(rng, 1, 2, 3, 4, 5, 7, 8, 9, 36, 37), 1+rng.Intn(31)
	svVecs := drawVectors(rng, nsv, dim)
	rowVecs := drawVectors(rng, max(rows, 1), dim)
	// Some rows are support vectors: the expansion of a point against itself
	// is a rounding residue of either sign, and the negative ones are what
	// the clamp is for.
	for i := 0; i < rows/8 && i < nsv; i++ {
		rowVecs[rng.Intn(rows)] = slices.Clone(svVecs[i])
	}
	// Gamma either keeps every argument in the exponential's window or puts
	// typical arguments at its edge, so tile columns hold quads inside,
	// outside and mixed.
	gamma := pick(rng, 0.5+rng.Float64(), 1/float64(dim), rng.Range(0.5, 1.5)*700/float64(2*dim))
	special := rng.Bool(0.3)
	if special {
		poison(rng, rowVecs)
	}
	all := NewDenseSet(rowVecs)
	xs := all.SliceInto(NewSetView(), 0, rows)
	svs := NewDenseSet(svVecs)
	coefs := make([]float64, nsv)
	for i := range coefs {
		coefs[i] = rng.Normal(0, 1)
	}
	label := fmt.Sprintf("%d rows × %d dims, %d SVs, gamma %v", rows, dim, nsv, gamma)
	fill := func(dst []float64, lo int) {
		if gamma < 1 { // a bias of zero keeps the last bits of tiny kernel values
			biasFill(dst, lo)
		}
	}
	want := make([]float64, rows)
	fill(want, 0)
	accumulateRBFScalar(gamma, coefs, svs, xs, want)

	for _, k := range kernelsUnderTest() {
		got := make([]float64, rows)
		fill(got, 0)
		rbfTiles(k, gamma, coefs, svs, xs, got, nil, Prior{}, PositiveSums{}, new(TileScratch), nil)
		checkParity(t, k.name+" tile "+label, got, want)
	}
	got := make([]float64, rows)
	fill(got, 0)
	RBF{Gamma: gamma}.AccumulateSet(coefs, svs, xs, got)
	checkParity(t, "AccumulateSet on "+Backend()+" "+label, got, want)

	// Shard by shard, from several goroutines at once.
	shardSize, workers := pick(rng, 7, 64, 100, 1000, DefaultShardSize), 1+rng.Intn(4)
	sharded := NewShardedSet(rowVecs[:rows], shardSize)
	for _, k := range kernelsUnderTest() {
		got := make([]float64, rows)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := w; s < sharded.NumShards(); s += workers {
					lo, sh := sharded.ShardStart(s), sharded.Shard(s)
					fill(got[lo:lo+sh.Len()], lo)
					rbfTiles(k, gamma, coefs, svs, sh, got[lo:lo+sh.Len()], nil, Prior{}, PositiveSums{}, new(TileScratch), nil)
				}
			}()
		}
		wg.Wait()
		checkParity(t, fmt.Sprintf("%s %s in shards of %d on %d workers", k.name, label, shardSize, workers), got, want)
	}

	// The regimes the draw reached.
	seen["tile-tail"] = rows > rbfBlockRows && rows%rbfBlockRows != 0 && nsv%2 == 1 && dim%4 != 0
	seen["tile-sharded"] = sharded.NumShards() > 1 && workers > 1
	seen["tile-special"] = special && rows > 0
	dots := make([]float64, rows)
	for s := 0; s < min(nsv, 2); s++ {
		dotRowsGo(xs.mat.Data, rows, dim, svs.mat.Row(s), dots)
		for j := 0; j+4 <= rows; j += 4 {
			in := 0
			for l := j; l < j+4; l++ {
				a := xs.norms[l] + svs.norms[s] - 2*dots[l]
				seen["tile-clamped"] = seen["tile-clamped"] || a < 0
				if gamma*max(a, 0) <= expWindow {
					in++
				}
			}
			seen["tile-window-mixed"] = seen["tile-window-mixed"] || in > 0 && in < 4
		}
	}

	// The query distances: the row dot on every backend and the expansion,
	// from a fresh point or from a row, whose expansion against itself is the
	// rounding residue the clamp is for.
	x := drawVectors(rng, 1, dim)[0]
	if rows > 0 && rng.Bool(0.5) {
		x = slices.Clone(rowVecs[rng.Intn(rows)])
	}
	wantDots := make(linalg.Vector, rows)
	xs.mat.MulVecInto(wantDots, x)
	for _, k := range kernelsUnderTest() {
		k.one(xs.mat.Data, rows, dim, x, got)
		checkParity(t, k.name+" row dot "+label, got, wantDots)
	}
	xs.mat.RowSquaredDistancesNormInto(want, x, xs.norms)
	xs.SquaredDistancesInto(got, x)
	checkParity(t, "SquaredDistancesInto on "+Backend()+" "+label, got, want)
	seen["distances-special"] = special && rows > 0
}

// setPairRef is EvalSet's definition of one pair: linalg's four-accumulator
// dot, and for RBF the norm expansion over it and expOne. evalOnly hides
// only RBF's EvalBatch, so its set form is RBF's.
func setPairRef(k Kernel, x linalg.Vector, set *DenseSet, i int) float64 {
	if e, ok := k.(evalOnly); ok {
		k = e.Kernel
	}
	m := &linalg.Matrix{Rows: 1, Cols: set.Dim(), Data: set.Point(i)}
	out := make(linalg.Vector, 1)
	switch k := k.(type) {
	case RBF:
		m.RowSquaredDistancesNormInto(out, x, set.norms[i:i+1])
		return expOne(-k.Gamma * out[0])
	case Linear:
		return m.MulVecInto(out, x)[0]
	}
	panic(fmt.Sprintf("no set definition for %T", k))
}

// checkEvalPaths holds RBF.EvalBatch over dense and sparse points to per-pair
// Eval, and EvalSet and GramSet of three kernels to setPairRef. A kernel
// without a batched path still draws its batch point, which keeps the draws
// after this check on the seeds the regimes are pinned to.
func checkEvalPaths(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	n, dim := 1+rng.Intn(40), pick(rng, 1, 3, 4, 5, 7, 9, 36)
	kernels := []Kernel{Linear{}, RBF{Gamma: rng.Range(0.01, 1)}, evalOnly{RBF{Gamma: 0.4}}}
	vecs := drawVectors(rng, n, dim)
	dense := DensePoints(vecs)
	sparsePts := make([]Point, n)
	for i := range sparsePts {
		sparsePts[i] = NewSparse(logLikeVector(rng, 1+dim, pick(rng, 0.5, 2.0, 8.0), rng.Bool(0.5)))
	}
	set := NewDenseSet(vecs)
	for _, k := range kernels {
		for i, pts := range [][]Point{dense, sparsePts} {
			x := pts[rng.Intn(n)]
			rbf, ok := k.(RBF)
			if !ok {
				continue
			}
			got := make([]float64, n)
			rbf.EvalBatch(x, pts, got)
			for j, y := range pts {
				if w := k.Eval(x, y); !sameBits(got[j], w) {
					t.Fatalf("%v EvalBatch over %d %s points of %d: [%d] = %v, Eval %v", k, n, []string{"dense", "sparse"}[i], dim, j, got[j], w)
				}
			}
			seen["eval-sparse"] = seen["eval-sparse"] || i == 1 && n > 4
		}
		x := vecs[rng.Intn(n)]
		got := make([]float64, n)
		k.EvalSet(x, set, got)
		gram := GramSet(k, set)
		for i := range n {
			if w := setPairRef(k, x, set, i); !sameBits(got[i], w) {
				t.Fatalf("%v EvalSet over %d points of %d: [%d] = %v, want %v", k, n, dim, i, got[i], w)
			}
			for j := range n {
				if w := setPairRef(k, vecs[i], set, j); !sameBits(gram.Row(i)[j], w) {
					t.Fatalf("%v GramSet of %d points of %d: (%d,%d) = %v, want %v", k, n, dim, i, j, gram.Row(i)[j], w)
				}
			}
		}
	}
	seen["eval-set"] = n > 4 && dim%4 != 0
	seen["eval-gram"] = n > 8
}

// checkSessions holds the log half — LinearWeights' build and
// LinearAccumulateWeights' walk — to its definition (refWeights,
// refDecisions): at the shapes of the benchmark's log modality (thousands of
// sessions, up to 64 support vectors, one repeated and one without an entry,
// rows from ~60 entries down to none, the last images judged by no session)
// or small draws full of signed zeros, infinities and NaNs, coefficients
// included (a non-finite one reaches only the rows of its sessions); from
// several goroutines sharing one model, each building its weights and
// walking one shared build range by range, cut at 0, 1, n−1 and n, at every
// shard boundary, or at random. A model the build cannot take — a support
// vector that is dense or of another dimension — must be refused.
func checkSessions(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	workload := rng.Bool(0.4)
	values := []float64{1, -1, 0.5, -2.25, 1.0 / 7, 0, math.Copysign(0, -1)}
	dim, nsv, rows := rng.Intn(9), rng.Intn(6), 1+rng.Intn(24)
	vector := func() Point {
		v := sparse.New(dim)
		for i := 0; i < dim; i++ {
			if rng.Bool(0.4) {
				v.Entries = append(v.Entries, sparse.Entry{Index: i, Value: pick(rng, values...)})
			}
		}
		return NewSparse(v)
	}
	mean, unit := 0.0, rng.Bool(0.5)
	if workload {
		dim, nsv, rows, mean = 1500+rng.Intn(2001), 1+rng.Intn(64), drawRows(rng)+1, pick(rng, 60, 4, 0.8)
		vector = func() Point { return NewSparse(logLikeVector(rng, dim, mean, unit)) }
	}
	svs, coefs := make([]Point, nsv), make([]float64, nsv)
	for i := range svs {
		svs[i], coefs[i] = vector(), pick(rng, values...)
		if workload {
			coefs[i] = rng.Range(-1, 1)
		}
		if i > 0 && rng.Bool(0.2) {
			svs[i] = svs[rng.Intn(i)]
		}
	}
	if nsv > 1 && workload {
		svs[rng.Intn(nsv)] = NewSparse(sparse.New(dim))
	}
	ys := make([]Point, rows)
	for j := range ys {
		ys[j] = vector()
	}
	ix := NewSparseSVIndex(ys)
	judged := rows
	if workload && rows > 1 && rng.Bool(0.5) {
		// The last images were ingested after the last session.
		judged = rows - 1 - rng.Intn(rows/2+1)
		for j := judged; j < rows; j++ {
			ys[j] = NewSparse(sparse.New(dim))
		}
		ix = NewSparseSVIndex(ys[:judged])
	}
	if dim == 0 {
		ix = (*SparseSVIndex)(nil).Extend(nil) // a log of no session
	}
	unjudged := ix == nil // no image judged yet: sessions without cells
	if unjudged {
		ix = (*SparseSVIndex)(nil).Extend(make([][]sparse.Entry, dim))
	}
	dst0 := make([]float64, rows)
	bias := pick(rng, 0.25, 0, math.Copysign(0, -1))
	for j := range dst0 {
		dst0[j] = bias
		if !workload && rng.Bool(0.3) {
			dst0[j] = pick(rng, 0, math.Copysign(0, -1), 0.25, -1, math.NaN(), math.Inf(1), math.Inf(-1))
		}
	}
	label := fmt.Sprintf("%d sessions, %d SVs, %d rows (%d judged), bias %v (signbit %v)", dim, nsv, rows, judged, bias, math.Signbit(bias))

	special, oddDense := "", false
	if nsv > 0 && rng.Bool(0.15) {
		i := rng.Intn(nsv)
		special = pick(rng, "non-finite", "odd-sv")
		if special == "non-finite" {
			coefs[i] = pick(rng, math.Inf(1), math.Inf(-1), math.NaN())
		} else {
			svs[i] = pick[Point](rng, Dense(make(linalg.Vector, dim)), NewSparse(sparse.New(dim+3)))
			_, oddDense = svs[i].(Dense)
		}
	}
	if special == "odd-sv" {
		// A sparse point of another dimension is odd only beside other
		// support vectors: a model's one support vector defines its
		// dimension, and the build takes it.
		if nsv > 1 || oddDense {
			if _, ok := LinearWeights(coefs, svs); ok {
				t.Fatalf("%s: the build took a support vector that is not a sparse point of the model's dimension", label)
			}
		} else if _, err := buildWeights(coefs, svs, refWeights(coefs, svs)); err != nil {
			t.Fatalf("%s: one sparse support vector of dimension %d: %v", label, dim+3, err)
		}
		seen["sessions-odd-sv"] = true
		return
	}
	wantW := refWeights(coefs, svs)
	want := slices.Clone(dst0)
	refDecisions(wantW, ys, want)
	shared, err := buildWeights(coefs, svs, wantW)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkRowDecisions(t, label, new(WeightTable), shared, ys, dst0, want)
	inW := func(y Point) bool {
		return slices.ContainsFunc(y.(Sparse).Entries, func(e sparse.Entry) bool {
			_, ok := slices.BinarySearchFunc(shared.Entries, e.Index, func(w sparse.Entry, s int) int { return w.Index - s })
			return ok
		})
	}
	seen["rows-empty-column"] = slices.ContainsFunc(ys, func(y Point) bool { return len(y.(Sparse).Entries) == 0 })
	seen["rows-outside-w"] = slices.ContainsFunc(ys, func(y Point) bool { return len(y.(Sparse).Entries) > 0 && !inW(y) })
	seen["rows-non-finite"] = slices.ContainsFunc(shared.Entries, func(e sparse.Entry) bool { return math.IsInf(e.Value, 0) || math.IsNaN(e.Value) }) && slices.ContainsFunc(ys, inW)
	seen["rows-signed-zero"] = slices.ContainsFunc(dst0, func(d float64) bool { return d == 0 && math.Signbit(d) })
	// One worker cuts at 0, 1, n−1 and n, one at every boundary of a shard
	// size, and one to four more at random, unless a coefficient is not
	// finite or no image is judged: their draws end before the cuts,
	// which keeps the checks after this one on the seeds they were pinned to.
	var shardCuts []int
	for c, shard := 0, []int{7, 64, 100, 2048}[rows%4]; c < rows; c += shard {
		shardCuts = append(shardCuts, c)
	}
	cuts := [][][2]int{cutRanges(rows, 1, rows-1), cutRanges(rows, shardCuts...)}
	if special == "" && !unjudged {
		for range 1 + rng.Intn(4) {
			cuts = append(cuts, splitRanges(rng, rows, 1+rng.Intn(rows)))
		}
	}
	workers := len(cuts)
	got, errs := make([][]float64, workers), make([]error, workers)
	var wg sync.WaitGroup
	for w, ranges := range cuts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker also builds the weights itself, through the shared
			// pool, and walks the one shared build.
			_, errs[w] = buildWeights(coefs, svs, wantW)
			got[w] = walkRanges(shared, ix, dst0, ranges)
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("%s, worker %d: %v", label, w, errs[w])
		}
		checkParity(t, fmt.Sprintf("%s, worker %d", label, w), got[w], want)
	}
	seen["sessions-uncovered-tail"] = judged < rows && workers > 2
	seen["sessions-signed-zero"] = !workload && slices.ContainsFunc(dst0, func(d float64) bool { return d == 0 && math.Signbit(d) })
	seen["sessions-non-finite"] = special == "non-finite" && slices.ContainsFunc(want, func(d float64) bool { return math.IsInf(d, 0) || math.IsNaN(d) })
	seen["sessions-empty-model"] = nsv == 0 && rows > 1
}

// checkCaches holds a cache's Gram matrix, fresh and grown at split points 0,
// 1, n−1 and n from bases filled and not (checkGram), to per-pair Eval, on
// every kernel and point mix it fills differently: the log modality's sparse
// Linear problem through the session index, dense RBF four points per trip,
// sparse RBF, dense Linear, zero-dimension sparse points and a kernel with no
// batched path. Points of two dimensions panic as the pairwise product does.
func checkCaches(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	n, dim, mean := 1+rng.Intn(56), 1+rng.Intn(40), pick(rng, 60, 4, 0.8)
	if rng.Bool(0.5) {
		dim = 1500 + rng.Intn(2001)
	}
	logLike := make([]Point, n)
	for i := range logLike {
		logLike[i] = NewSparse(logLikeVector(rng, dim, mean, rng.Bool(0.5)))
	}
	logLike[rng.Intn(n)] = NewSparse(sparse.New(dim))
	logLike[n-1] = logLike[0]
	dense := DensePoints(drawVectors(rng, n, 1+rng.Intn(37)))
	regime := pick(rng, "linear-indexed", "rbf-dense", "rbf-sparse", "linear-dense", "zero-dim", "no-batch", "mixed-dims")
	var k Kernel = Linear{}
	pts := logLike
	switch regime {
	case "rbf-dense":
		k, pts = RBF{Gamma: rng.Range(0.01, 0.5)}, dense
	case "rbf-sparse":
		k = RBF{Gamma: 0.02}
	case "linear-dense":
		pts = dense
	case "zero-dim":
		pts = []Point{NewSparse(sparse.New(0)), NewSparse(sparse.New(0))}
	case "no-batch":
		k, pts = evalOnly{RBF{Gamma: 0.4}}, dense
	case "mixed-dims":
		mixed := []Point{NewSparse(logLikeVector(rng, 40, 6, true)), NewSparse(logLikeVector(rng, 41, 6, true))}
		panicOf := func(run func()) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			run()
			return
		}
		for _, order := range [][]Point{mixed, {mixed[1], mixed[0]}} {
			want := panicOf(func() { Linear{}.Eval(order[1], order[0]) })
			base := NewCache(Linear{}, order[:1])
			base.Row(0)
			if got := panicOf(func() { base.Grow(order[1:]).Row(0) }); got != want || want == "<nil>" {
				t.Errorf("grown across dimensions: Row panics %q, Eval panics %q", got, want)
			}
			want = panicOf(func() { Linear{}.Eval(order[0], order[1]) })
			c := NewCache(Linear{}, order)
			if got := panicOf(func() { c.Row(1) }); got != want || c.index != nil {
				t.Errorf("mixed dimensions: Row panics %q, Eval panics %q; index built %v", got, want, c.index != nil)
			}
		}
		seen["cache-mixed-dims"] = true
		return
	}
	c := NewCache(k, pts)
	c.Row(0)
	if _, sparseLinear := k.(Linear); (c.index != nil) != (sparseLinear && regime != "linear-dense" && regime != "zero-dim") {
		t.Fatalf("%s: session index built = %v", regime, c.index != nil)
	}
	checkGram(t, fmt.Sprintf("%s, %d points of %d", regime, len(pts), dim), k, pts)
	seen["cache-"+regime] = true
}

// checkExpLanes holds every backend's exp to element-wise expOne: a slice of
// any length through two tiles and every tail, at any offset into its backing
// array (no alignment is assumed), arguments mostly where -gamma*d^2 lives
// and some outside the window, special values at drawn lanes — the quads the
// assembly must stop in front of and resume after; the sentinels around the
// slice must survive. Then a stretch of the window in steps no power of two
// divides.
func checkExpLanes(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	const pad = 4
	n, off := rng.Intn(2*rbfBlockRows+4), pad+rng.Intn(4)
	orig := make([]float64, off+n+pad)
	want := make([]float64, len(orig))
	for i := range orig {
		orig[i] = -60 * rng.Float64()
		if rng.Bool(0.125) {
			orig[i] = rng.Range(-760, 740)
			seen["exp-out-of-window"] = seen["exp-out-of-window"] || i >= off && i < off+n && math.Abs(orig[i]) > expWindow
		}
		if rng.Bool(0.05) {
			orig[i] = pick(rng, expSpecials...)
			seen["exp-special-lane"] = seen["exp-special-lane"] || i >= off && i < off+n-n%4
		}
		want[i] = expOne(orig[i])
	}
	for _, k := range kernelsUnderTest() {
		checkExp(t, k, make([]float64, len(orig)), orig, want, off, n)
	}
	lo, step := rng.Range(-expWindow, expWindow-40), 0.00099731
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	for _, k := range kernelsUnderTest() {
		got := slices.Clone(xs)
		k.exp(got)
		for i, x := range xs {
			if w := expOne(x); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s exp(%.17g) = %.17g, expOne = %.17g", k.name, x, got[i], w)
			}
		}
	}
}

// checkGrowth grows a DenseSet and a ShardedSet from a split point (0, 1,
// n−1, n or any) in uneven steps and holds both to a rebuild: layout, every
// stored value and row norm, and the kernel rows over the grown set.
func checkGrowth(t *testing.T, rng *linalg.RNG, seen map[string]bool) {
	t.Helper()
	n, dim := 1+rng.Intn(60), 1+rng.Intn(9)
	all := drawVectors(rng, n, dim)
	if rng.Bool(0.3) {
		poison(rng, all)
	}
	split := pick(rng, 0, 1, n-1, n, rng.Intn(n+1))
	shardSize := 1 + rng.Intn(16)
	set, sharded := NewDenseSet(all[:split]), NewShardedSet(all[:split], shardSize)
	for at := split; at < n; {
		hi := min(n, at+1+rng.Intn(n))
		set, sharded = set.Grow(all[at:hi]), sharded.Grow(all[at:hi])
		at = hi
	}
	want := NewDenseSet(all)
	label := fmt.Sprintf("%d points of %d grown from %d", n, dim, split)
	if set.Len() != want.Len() || set.Dim() != want.Dim() {
		t.Fatalf("%s: grown set %dx%d, want %dx%d", label, set.Len(), set.Dim(), want.Len(), want.Dim())
	}
	checkParity(t, label+": stored values", set.mat.Data, want.mat.Data)
	checkParity(t, label+": row norms", set.norms, want.norms)
	got, exp := make([]float64, n), make([]float64, n)
	k, x := RBF{Gamma: 0.35}, linalg.Vector(want.Point(rng.Intn(n)))
	k.EvalSet(x, set, got)
	k.EvalSet(x, want, exp)
	checkParity(t, label+": EvalSet", got, exp)
	identicalSets(t, sharded, NewShardedSet(all, shardSize))
	seen["grow-split-last"] = split == n-1 && n > 1
}
