package kernel

import (
	"math"
	"slices"
	"sync/atomic"
)

// dotKernels is one member (see the package documentation): the four
// routines of the tile driver, rbfTiles, and the name Backend reports.
type dotKernels struct {
	name     string
	pairArgs pairArgsFunc
	one      dotRowsFunc
	exp      func(v []float64)
	fold     foldFunc
}

var goKernels = dotKernels{name: "unrolled", pairArgs: pairArgsGo, one: dotRowsGo, exp: expLanes, fold: foldGo}

// activeKernels is what AccumulateSet runs on, fixed once at package
// initialisation from the build constraints and the CPU: the widest member
// the CPU runs. Nothing but CountPairs sets it afterwards.
var activeKernels = func() dotKernels {
	if ks := asmKernels(); len(ks) > 0 {
		return ks[len(ks)-1]
	}
	return goKernels
}()

// CountPairs adds to n the kernel values (row × support vector pairs) every
// later pass evaluates, until restore is called: activeKernels becomes the
// running member with an exponential that counts the arguments it takes.
// Each tile column is one exponential call, so a pass counts its evaluated
// pairs. It is a benchmark's counter, to be called with no pass running.
func CountPairs(n *atomic.Int64) (restore func()) {
	k := activeKernels
	activeKernels.exp = func(v []float64) {
		n.Add(int64(len(v)))
		k.exp(v)
	}
	return func() { activeKernels = k }
}

// Backend reports which kernels the scoring scans and the SMO step run on:
// "avx512" (the tile's pair arguments and fold eight rows per instruction,
// its other routines and svm's step AVX2), "avx2" (the tile's four assembly
// routines and svm's step) or "unrolled" (the pure-Go ones). Read-only; GET
// /api/status, cbir_kernel_backend_info and the benchmark reports surface it.
func Backend() string {
	return activeKernels.name
}

// AVX2 reports whether Backend is "avx2" or "avx512", both of which run the
// AVX2 routines: the fact package svm picks its SMO step's member by.
func AVX2() bool {
	return activeKernels.name == "avx2" || activeKernels.name == "avx512"
}

// dotRowsFunc computes du[r] = mat[r]·u for each row of the rows×cols
// row-major matrix, with the scalar four-accumulator summation pattern.
type dotRowsFunc func(mat []float64, rows, cols int, u, du []float64)

// pairArgsFunc computes, for each row r of the rows×cols row-major matrix
// with squared norm xn[r], the RBF exponents against the support vectors u
// and v of squared norms nU and nV:
// aU[r] = negGamma·max((xn[r]+nU) − 2·(mat[r]·u), 0), and aV[r] likewise,
// the dots with the four-accumulator pattern, a negative zero or a NaN
// passing the clamp as "if a < 0 { a = 0 }" lets it.
type pairArgsFunc func(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64)

// foldFunc adds a pair of support vectors' kernel columns to the scores:
// out[r] = (out[r] + cA·eA[r]) + cB·eB[r].
type foldFunc func(out, eA, eB []float64, cA, cB float64)

// rbfBlockRows is the tile driver's row-tile size: 64 rows x 36 dims x 8 B
// = 18 KiB per tile stays L1-resident across every support-vector pass, the
// exp-lane batches amortize their loop overhead, and a bit per row fills a
// Bound's mask.
const rbfBlockRows = 64

// Bound is a top-K pass as the tile driver sees it (RBF.AccumulateBounded).
type Bound interface {
	// Floor returns the k-th best score the pass has kept, -Inf while it
	// keeps fewer than k; the driver reads it before every tile.
	Floor() float64
	// Scored hands over the tile [lo, lo+n) of the set once scored: row
	// lo+j holds its score when bit j of kept is set and was skipped if not.
	Scored(lo, n int, kept uint64)
	// Done returns the rows of the tile [lo, lo+n) the pass has scored
	// already, bit j for row lo+j: the driver skips them as it skips a row
	// below the floor. The driver asks before every tile.
	Done(lo, n int) uint64
}

// PositiveSums is a lane of one value per row of a set, K⁺_i = Σ_{c_t>0}
// K(x_i, s_t), shared by two passes over the same rows under the same gamma.
// A pass with Record set writes each row's sum of its positive-coefficient
// columns, which its tiles compute for every row anyway, added in model order
// from +0. A later pass reads the lane in place of the columns of Deferred:
// its positive-coefficient support vectors whose columns the lane's sums
// hold, because they are support vectors of the recording pass too. Those
// leave the bound's phase 1, and the bound adds c_max·K⁺_i for them, c_max
// being the largest of their coefficients. The zero value is no lane.
type PositiveSums struct {
	// Lane holds a row's sum at the row's index in the set.
	Lane []float64
	// Record makes the pass write Lane rather than read it.
	Record bool
	// Deferred lists, ascending, the support vectors whose columns the
	// lane's sums hold; an entry whose coefficient is not > 0 is ignored.
	Deferred []int
	// Terms is how many columns each sum adds: the recording pass's
	// positive coefficients.
	Terms int
}

// TileScratch is the tile driver's working memory, kept by the caller so a
// scan allocates none per range: a 64-row column per support vector, a
// tile's gathered survivors, the support vectors in phase and model order.
// npos counts phase 1's positive coefficients before the parity rule, and
// cmax is the largest coefficient a lane stands in for (0: none deferred).
type TileScratch struct {
	cols, rows   []float64
	ub, xn       [rbfBlockRows]float64
	kept         [rbfBlockRows]int
	order, seq   []int
	p1, npos     int
	sumAbs, cmax float64
	prunable     bool
}

// boundLimit caps the squared norms a bound is taken over: every product and
// sum of the expansion is finite, a kernel value in [0, 1] up to expOne's ulps.
const boundLimit = 1e290

// split orders the support vectors: phase 1 the coefficients not ≤ 0 that
// deferred does not name, plus one from phase 2 when they are odd (a tile
// takes the row dot at most once), phase 2 the rest, from the back. A bound
// needs phase 2's terms provably ≤ 0 and finite — gamma ≥ 0, finite
// coefficients, norms under boundLimit — or, for a deferred one, bounded by
// the lane (PositiveSums).
func (ts *TileScratch) split(gamma float64, coefs, norms []float64, cols int, deferred []int) {
	n := len(coefs)
	ts.order, ts.seq, ts.p1, ts.cmax = slices.Grow(ts.order[:0], n)[:n], ts.seq[:0], 0, 0
	ts.sumAbs, ts.prunable = 0, gamma >= 0 && gamma <= math.MaxFloat64
	for t, c := range coefs {
		ts.seq = append(ts.seq, t)
		ts.sumAbs += math.Abs(c)
		for len(deferred) > 0 && deferred[0] < t {
			deferred = deferred[1:]
		}
		if c > 0 && (len(deferred) == 0 || deferred[0] != t) {
			ts.order[ts.p1] = t
			ts.p1++
			continue
		}
		ts.order[n-1-(t-ts.p1)] = t
		if c > 0 {
			ts.cmax = max(ts.cmax, c)
		} else {
			ts.prunable = ts.prunable && c >= -math.MaxFloat64 && norms[t] <= boundLimit
		}
	}
	ts.npos, ts.p1 = ts.p1, min(ts.p1+ts.p1%2, n)
	if len(ts.cols) < n*rbfBlockRows || len(ts.rows) < cols*rbfBlockRows {
		ts.cols, ts.rows = make([]float64, n*rbfBlockRows), make([]float64, cols*rbfBlockRows)
	}
}

// col returns the first m rows of support vector t's column.
func (ts *TileScratch) col(t, m int) []float64 { return ts.cols[t*rbfBlockRows : t*rbfBlockRows+m] }

// columns stores the kernel columns of the support vectors list names over
// the m rows of mat: pairs through pairArgs, an odd last one through the row
// dot and the same expansion. A column's bits do not depend on its partner.
func (ts *TileScratch) columns(k dotKernels, gamma float64, svs *DenseSet, list []int, mat []float64, m int, xn []float64) {
	cols, i := svs.Dim(), 0
	for ; i+2 <= len(list); i += 2 {
		t, u := list[i], list[i+1]
		k.pairArgs(mat, m, cols, svs.mat.Row(t), svs.mat.Row(u), xn, svs.norms[t], svs.norms[u], -gamma, ts.col(t, m), ts.col(u, m))
		k.exp(ts.col(t, m))
		k.exp(ts.col(u, m))
	}
	if i < len(list) {
		t, d := list[i], ts.col(list[i], m)
		k.one(mat, m, cols, svs.mat.Row(t), d)
		for j := range d {
			a := xn[j] + svs.norms[t] - float64(2*d[j])
			if a < 0 {
				a = 0
			}
			d[j] = -gamma * a
		}
		k.exp(d)
	}
}

// fold adds the columns of the support vectors list names, in list order,
// into acc: pairs as (acc + cA·eA) + cB·eB, an odd last one as acc + c·e.
func (ts *TileScratch) fold(k dotKernels, coefs []float64, list []int, acc []float64) {
	m, i := len(acc), 0
	for ; i+2 <= len(list); i += 2 {
		k.fold(acc, ts.col(list[i], m), ts.col(list[i+1], m), coefs[list[i]], coefs[list[i+1]])
	}
	if i < len(list) {
		c, e := coefs[list[i]], ts.col(list[i], m)
		for j := range acc {
			acc[j] += float64(c * e[j])
		}
	}
}

// prune bounds the rows of the tile at base from above and lists in ts.kept
// those whose bound reaches the floor and that done does not name. A row's
// score is the recursive sum
// S = ((b + Σ_t c_t·K_t) + add) − sub over the n support vectors in model
// order; its bound is U = (((b + Σ_{t∈P1} c_t·K_t) + c_max·K⁺) + add) − sub
// over phase 1, from the same columns, and the lane's sum K⁺ of the deferred
// columns (PositiveSums; the term is absent without one). Phase 2's other
// terms are ≤ 0, and each deferred term is c_t·K_t ≤ c_max·K_t with K_t ≥ 0
// one of K⁺'s terms (a deferred one the parity rule pulled into phase 1 is
// counted twice), so S ≤ U in exact arithmetic. With u = 2⁻⁵³, K ≤ 1 up to
// expOne's ulps and T = |b| + Σ|c| + c_max·K⁺ + |add| + |sub|, the computed
// S, a sum of n+3 terms, is within γ_{n+2}·T ≈ (n+2)·u·T of its exact value.
// U is a sum of n+3 terms without a lane, within γ_{n+2}·T, or of at most
// n+4 with one, within γ_{n+3}·T, and the lane's sum of `terms` columns is
// within terms·u·K⁺ of its own, so the computed S ≤ U + (2n+4)·u·T, or
// U + (2n+5+terms)·u·T with a lane. The margin (n+terms+4)·2u·T covers that,
// the rounding of T and of the margin; and as rounding is monotone,
// fl(U + margin) < floor implies U + margin < floor.
// A skipped row scores strictly below the floor, so a row whose score ties
// it is always scored; a NaN or an infinity in U or T keeps the row.
func (ts *TileScratch) prune(k dotKernels, coefs, out, add, sub, lane, xn []float64, terms, base int, floor float64, done uint64) int {
	ub := ts.ub[:len(out)]
	copy(ub, out)
	ts.fold(k, coefs, ts.order[:ts.p1], ub)
	slack, m := float64(len(coefs)+terms+4)*0x1p-52, 0
	for j, u := range ub {
		mag := math.Abs(out[j]) + ts.sumAbs
		if lane != nil {
			h := float64(ts.cmax * lane[base+j])
			u, mag = u+h, mag+math.Abs(h)
		}
		if add != nil {
			u, mag = u+add[base+j], mag+math.Abs(add[base+j])
		}
		if sub != nil {
			u, mag = u-sub[base+j], mag+math.Abs(sub[base+j])
		}
		if done>>j&1 == 0 && !(xn[j] <= boundLimit && u+float64(slack*mag) < floor) {
			ts.kept[m] = j
			m++
		}
	}
	return m
}

// pending lists in ts.kept the rows of an n-row tile that done does not name.
func (ts *TileScratch) pending(n int, done uint64) int {
	m := 0
	for j := range n {
		if done>>j&1 == 0 {
			ts.kept[m] = j
			m++
		}
	}
	return m
}

// record writes into a tile's lane the sum of each row's positive-coefficient
// columns, in model order from +0: PositiveSums.Record.
func (ts *TileScratch) record(lane []float64) {
	clear(lane)
	for _, t := range ts.order[:ts.npos] {
		for j, e := range ts.col(t, len(lane)) {
			lane[j] += e
		}
	}
}

// rbfTiles is the tile driver of RBF.AccumulateBounded. Per 64-row tile it
// writes the rows' prior (the tile's first read of them), computes phase 1's
// columns (and records pos's lane from them), skips the rows b has scored
// and those prune bounds below b's floor, gathers the survivors, computes
// phase 2's columns over them, folds every column in the model's order and
// finishes the scores as (dst + add) − prior: a scored row has the reference
// loop's bits (accumulateRBFScalar).
func rbfTiles(k dotKernels, gamma float64, coefs []float64, svs, xs *DenseSet, dst, add []float64, prior Prior, pos PositiveSums, ts *TileScratch, b Bound) {
	rows, cols := xs.Len(), xs.Dim()
	var sub []float64
	var qq float64
	if prior.Query != nil {
		sub, qq = prior.Lane, prior.Query.Dot(prior.Query)
	}
	deferred, lane, terms := pos.Deferred, pos.Lane, pos.Terms
	if pos.Record {
		deferred = nil
	}
	ts.split(gamma, coefs, svs.norms, cols, deferred)
	if pos.Record || ts.cmax == 0 {
		lane, terms = nil, 0
	}
	for base := 0; base < rows; base += rbfBlockRows {
		blk := min(rows-base, rbfBlockRows)
		mat, xn, out := xs.mat.Data[base*cols:(base+blk)*cols], xs.norms[base:base+blk], dst[base:base+blk]
		if sub != nil {
			prior.rows(k, mat, blk, cols, xn, qq, sub[base:base+blk])
		}
		ts.columns(k, gamma, svs, ts.order[:ts.p1], mat, blk, xn)
		if pos.Record {
			ts.record(pos.Lane[base : base+blk])
		}
		m, acc := blk, out
		if b != nil {
			floor, done := math.Inf(-1), b.Done(base, blk)
			if ts.prunable {
				floor = b.Floor()
			}
			if floor > math.Inf(-1) {
				m = ts.prune(k, coefs, out, add, sub, lane, xn, terms, base, floor, done)
			} else if done != 0 {
				m = ts.pending(blk, done)
			}
		}
		if m < blk {
			// Gather the survivors' rows, norms, scores and phase-1 columns.
			for i, j := range ts.kept[:m] {
				copy(ts.rows[i*cols:(i+1)*cols], mat[j*cols:(j+1)*cols])
				ts.xn[i], ts.ub[i] = xn[j], out[j]
				for _, t := range ts.order[:ts.p1] {
					ts.cols[t*rbfBlockRows+i] = ts.cols[t*rbfBlockRows+j]
				}
			}
			mat, xn, acc = ts.rows[:m*cols], ts.xn[:m], ts.ub[:m]
		}
		ts.columns(k, gamma, svs, ts.order[ts.p1:], mat, m, xn)
		ts.fold(k, coefs, ts.seq, acc)
		var kept uint64
		for i, v := range acc {
			j := i
			if m < blk {
				j = ts.kept[i]
			}
			if add != nil {
				v += add[base+j]
			}
			if sub != nil {
				v -= sub[base+j]
			}
			out[j], kept = v, kept|1<<j
		}
		if b != nil {
			b.Scored(base, blk, kept)
		}
	}
}

// pairArgsGo is the pure-Go pairArgs, and its definition: the pair dot, then
// the norm expansion, the clamp and the scaling element by element.
func pairArgsGo(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64) {
	dotPairRowsGo(mat, rows, cols, u, v, aU, aV)
	for j := 0; j < rows; j++ {
		a := xn[j] + nU - float64(2*aU[j])
		if a < 0 {
			a = 0
		}
		b := xn[j] + nV - float64(2*aV[j])
		if b < 0 {
			b = 0
		}
		aU[j] = negGamma * a
		aV[j] = negGamma * b
	}
}

// foldGo is the pure-Go fold, and its definition.
func foldGo(out, eA, eB []float64, cA, cB float64) {
	for j := range out {
		s := out[j] + float64(cA*eA[j])
		out[j] = s + float64(cB*eB[j])
	}
}

// dotPairRowsGo is the pair dot of pairArgsGo: du[r] = mat[r]·u and
// dv[r] = mat[r]·v in one pass over the matrix; per row, four-way unrolled
// accumulators combined as ((s0+s1)+s2)+s3, with the tail folded into
// accumulator 0.
func dotPairRowsGo(mat []float64, rows, cols int, u, v, du, dv []float64) {
	for r := 0; r < rows; r++ {
		x := mat[r*cols : r*cols+cols]
		u := u[:len(x)]
		v := v[:len(x)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		i := 0
		// Two quads per trip halve the loop overhead; each accumulator
		// still sees its i ≡ l (mod 4) elements in the same ascending
		// order, so the sums are bit-identical to the quad-at-a-time
		// loop.
		for ; i+8 <= len(x); i += 8 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			b0 += float64(x[i] * v[i])
			b1 += float64(x[i+1] * v[i+1])
			b2 += float64(x[i+2] * v[i+2])
			b3 += float64(x[i+3] * v[i+3])
			a0 += float64(x[i+4] * u[i+4])
			a1 += float64(x[i+5] * u[i+5])
			a2 += float64(x[i+6] * u[i+6])
			a3 += float64(x[i+7] * u[i+7])
			b0 += float64(x[i+4] * v[i+4])
			b1 += float64(x[i+5] * v[i+5])
			b2 += float64(x[i+6] * v[i+6])
			b3 += float64(x[i+7] * v[i+7])
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			b0 += float64(x[i] * v[i])
			b1 += float64(x[i+1] * v[i+1])
			b2 += float64(x[i+2] * v[i+2])
			b3 += float64(x[i+3] * v[i+3])
		}
		for ; i < len(x); i++ {
			a0 += float64(x[i] * u[i])
			b0 += float64(x[i] * v[i])
		}
		du[r] = ((a0 + a1) + a2) + a3
		dv[r] = ((b0 + b1) + b2) + b3
	}
}

// dotRowsGo is the single-vector variant of dotPairRowsGo.
func dotRowsGo(mat []float64, rows, cols int, u, du []float64) {
	for r := 0; r < rows; r++ {
		x := mat[r*cols : r*cols+cols]
		u := u[:len(x)]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+8 <= len(x); i += 8 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			a0 += float64(x[i+4] * u[i+4])
			a1 += float64(x[i+5] * u[i+5])
			a2 += float64(x[i+6] * u[i+6])
			a3 += float64(x[i+7] * u[i+7])
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
		}
		for ; i < len(x); i++ {
			a0 += float64(x[i] * u[i])
		}
		du[r] = ((a0 + a1) + a2) + a3
	}
}
