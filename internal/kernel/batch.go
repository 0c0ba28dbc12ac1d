package kernel

import (
	"fmt"
	"math"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// This file is the batched evaluation path: kernels evaluate one point
// against a whole slice of points (or a DenseSet, the flat row-major
// collection store) into a caller-provided destination, with no allocation
// and no per-pair interface dispatch in the inner loops. The scoring passes
// of every retrieval scheme run through it.
//
// Unless a method documents otherwise, the batched paths perform exactly the
// same floating-point arithmetic in the same order as the scalar Eval, so
// batched scores are bit-for-bit identical to the scalar path.

// BatchKernel is a Kernel that can evaluate one point against many in a
// single call. dst[j] receives K(x, ys[j]); len(dst) must equal len(ys).
type BatchKernel interface {
	Kernel
	EvalBatch(x Point, ys []Point, dst []float64)
}

// EvalBatch stores K(x, ys[j]) into dst[j] for any kernel, using the
// kernel's batched implementation when it has one and falling back to
// per-pair evaluation otherwise.
func EvalBatch(k Kernel, x Point, ys []Point, dst []float64) {
	if bk, ok := k.(BatchKernel); ok {
		bk.EvalBatch(x, ys, dst)
		return
	}
	checkBatch(len(ys), len(dst))
	for j, y := range ys {
		dst[j] = k.Eval(x, y)
	}
}

func checkBatch(n, d int) {
	if n != d {
		panic(fmt.Sprintf("kernel: EvalBatch destination length %d, want %d", d, n))
	}
}

// EvalBatch implements BatchKernel. Sparse points take the per-pair merge
// join, Sparse.Dot; the log modality's hot sparse products go through a
// SparseSVIndex instead (LinearAccumulateSparse, Cache.Row).
func (Linear) EvalBatch(x Point, ys []Point, dst []float64) {
	checkBatch(len(ys), len(dst))
	if xv, ok := x.(Dense); ok {
		for j, y := range ys {
			if yv, ok := y.(Dense); ok {
				dst[j] = linalg.Vector(xv).Dot(linalg.Vector(yv))
			} else {
				dst[j] = x.Dot(y)
			}
		}
		return
	}
	for j, y := range ys {
		dst[j] = x.Dot(y)
	}
}

// SparseSVIndex is sparse points of one dimension — a linear model's support
// vectors, or a training problem's points — inverted by index: for each log
// session, the (point, weight) cells of the points that carry it. It is
// built once per model or problem and never written afterwards; a model's
// is shared by the scan workers.
type SparseSVIndex struct {
	svs []Point
	dim int
	// cells[start[i]:start[i+1]] are the cells of index i, in ascending t.
	start []int32
	cells []svCell
}

// svCell is one stored entry of point t.
type svCell struct {
	t int32
	w float64
}

// NewSparseSVIndex inverts svs, or returns nil when they are not sparse
// points of one dimension: none at all, a non-sparse or zero-dimension one,
// or two of different dimensions.
func NewSparseSVIndex(svs []Point) *SparseSVIndex {
	if len(svs) == 0 {
		return nil
	}
	dim := -1
	for _, sv := range svs {
		v, ok := sv.(Sparse)
		if !ok || v.Dim <= 0 || (dim >= 0 && v.Dim != dim) {
			return nil
		}
		dim = v.Dim
	}
	// A counting sort by index: start[i+2] counts index i, the prefix sum
	// leaves the first cell of i in start[i+1], and placing the cells in
	// point order advances it to the first cell of i+1.
	start := make([]int32, dim+2)
	n := 0
	for _, sv := range svs {
		for _, e := range sv.(Sparse).Entries {
			start[e.Index+2]++
			n++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	cells := make([]svCell, n)
	for t, sv := range svs {
		for _, e := range sv.(Sparse).Entries {
			cells[start[e.Index+1]] = svCell{t: int32(t), w: e.Value}
			start[e.Index+1]++
		}
	}
	return &SparseSVIndex{svs: svs, dim: dim, start: start[:dim+1], cells: cells}
}

// gather adds <svs[t], x> into acc[t] for every point t the index holds, in
// one walk of x's entries, each entry visiting only the cells of its index.
// For a fixed t the products are the matched products of the merge join,
// svs[t]'s value times x's (the same bits either way round), added in the
// same ascending-index order: starting from +0, acc[t] ends on Sparse.Dot's
// bits, and stays +0 for a point that shares no index with x.
func (ix *SparseSVIndex) gather(x []sparse.Entry, acc []float64) {
	for _, e := range x {
		v := e.Value
		for _, c := range ix.cells[ix.start[e.Index]:ix.start[e.Index+1]] {
			acc[c.t] += c.w * v
		}
	}
}

// sparseAccStack is how many support vectors' running dots
// LinearAccumulateSparse keeps on its stack; a larger model allocates them.
const sparseAccStack = 128

// LinearAccumulateSparse accumulates a whole linear decision pass,
// dst[j] += Σ_t coefs[t]·<svs[t], ys[j]>, for the sparse support vectors ix
// inverts. It transposes the work: instead of one merge join per support
// vector and image, every per-SV dot of an image is gathered in a single
// walk of that image's entries (SparseSVIndex.gather), with the nsv running
// sums hot in one small accumulator. Reports false (leaving dst untouched)
// when there is no index (see NewSparseSVIndex) or a coefficient is not
// finite: Inf·0 is NaN, so the ±0 terms of an empty row are then not
// absorbed and the skip below would be wrong.
//
// Same arithmetic as the per-SV pass: each per-SV dot is Sparse.Dot's; the
// final fold adds coefs[t]·dot_t into dst[j] over every t ascending, the
// accumulation order of the per-SV pass, the ±0 terms of the support vectors
// an image shares nothing with included (they decide the sign of a zero
// sum). The whole call therefore equals nsv successive Linear.EvalBatch
// accumulations — also for the rows it skips: an empty ys[j] leaves a
// nonzero dst[j] as it is.
func LinearAccumulateSparse(coefs []float64, ix *SparseSVIndex, ys []Point, dst []float64) bool {
	if ix == nil || len(coefs) != len(ix.svs) {
		return false
	}
	for _, c := range coefs {
		if math.IsInf(c, 0) || math.IsNaN(c) {
			return false
		}
	}
	checkBatch(len(ys), len(dst))
	var stack [sparseAccStack]float64
	acc := stack[:]
	if len(coefs) > len(acc) {
		acc = make([]float64, len(coefs))
	}
	acc = acc[:len(coefs)]
	for j, y := range ys {
		yv, ok := y.(Sparse)
		if !ok || yv.Dim != ix.dim {
			s := dst[j]
			for t, sv := range ix.svs {
				s += coefs[t] * sv.Dot(y)
			}
			dst[j] = s
			continue
		}
		if len(yv.Entries) == 0 && dst[j] != 0 {
			// An image without log entries has every dot equal to +0, and a
			// nonzero dst[j] absorbs the finite coefficients' ±0 terms
			// unchanged. (A zero dst[j] may change sign in the fold, so it
			// takes the full path.)
			continue
		}
		for t := range acc {
			acc[t] = 0
		}
		ix.gather(yv.Entries, acc)
		s := dst[j]
		for t, a := range acc {
			s += coefs[t] * a
		}
		dst[j] = s
	}
	return true
}

// EvalBatch implements BatchKernel.
func (k RBF) EvalBatch(x Point, ys []Point, dst []float64) {
	checkBatch(len(ys), len(dst))
	switch xv := x.(type) {
	case Dense:
		// The subtract-square sum is written inline rather than calling
		// Vector.SquaredDistance: same single accumulator over the same
		// ascending elements (bit-identical — the training paths that pin
		// solver trajectories come through here), but without a non-inlined
		// call and its length-check per pair.
		xs := []float64(xv)
		for j, y := range ys {
			if yv, ok := y.(Dense); ok {
				w := []float64(yv)
				if len(w) != len(xs) {
					panic(fmt.Sprintf("kernel: EvalBatch dimension mismatch %d != %d", len(w), len(xs)))
				}
				var s float64
				for i, xi := range xs {
					d := xi - w[i]
					s += d * d
				}
				dst[j] = math.Exp(-k.Gamma * s)
			} else {
				dst[j] = k.Eval(x, y)
			}
		}
	case Sparse:
		for j, y := range ys {
			if yv, ok := y.(Sparse); ok {
				dst[j] = math.Exp(-k.Gamma * xv.Vector.SquaredDistance(yv.Vector))
			} else {
				dst[j] = k.Eval(x, y)
			}
		}
	default:
		for j, y := range ys {
			dst[j] = k.Eval(x, y)
		}
	}
}

// DenseSet stores a collection of dense points as one flat row-major matrix
// with precomputed squared row norms. It is the collection-storage format of
// the batched scoring path: kernel rows over the set become tight loops (or
// one matrix-vector product) over contiguous memory instead of per-point
// interface calls. A DenseSet is immutable after construction and safe for
// concurrent readers.
type DenseSet struct {
	mat   *linalg.Matrix
	norms linalg.Vector
}

// NewDenseSet copies the given vectors into flat row-major storage and
// precomputes their squared norms. All vectors must have the same length.
func NewDenseSet(vs []linalg.Vector) *DenseSet {
	m := linalg.FromRows(vs)
	return &DenseSet{mat: m, norms: m.RowSquaredNorms(make(linalg.Vector, m.Rows))}
}

// Len returns the number of points in the set.
func (s *DenseSet) Len() int { return s.mat.Rows }

// Dim returns the dimensionality of the points.
func (s *DenseSet) Dim() int { return s.mat.Cols }

// Point returns point i as a view into the flat storage.
func (s *DenseSet) Point(i int) Dense { return Dense(s.mat.Row(i)) }

// SquaredDistancesInto stores ||set_i - x||^2 into dst[i] through the
// expansion ||set_i||^2 + ||x||^2 - 2<set_i, x> over the precomputed row
// norms, the dots on the backend's row-dot routine. The row dot is
// linalg.Matrix.MulVecInto's four-accumulator sum and the expansion is
// written as linalg.Matrix.RowSquaredDistancesNormInto writes it, so the
// result is that function's: cancellation makes it differ from the direct
// subtraction by O(1e-15) relative error, and negative results from rounding
// are clamped to zero.
func (s *DenseSet) SquaredDistancesInto(dst []float64, x linalg.Vector) {
	if len(x) != s.mat.Cols {
		panic(fmt.Sprintf("kernel: SquaredDistancesInto dimension mismatch %d != %d", len(x), s.mat.Cols))
	}
	checkBatch(s.Len(), len(dst))
	activeKernels.one(s.mat.Data, s.mat.Rows, s.mat.Cols, x, dst)
	xx := x.Dot(x)
	for i, d := range dst {
		d = s.norms[i] + xx - 2*d
		if d < 0 {
			d = 0
		}
		dst[i] = d
	}
}

// NewSetView returns an empty DenseSet whose header can be rewritten
// repeatedly by SliceInto. Candidate-restricted scoring loops keep one view
// per scratch arena so slicing a shard run costs zero allocations.
func NewSetView() *DenseSet {
	return &DenseSet{mat: &linalg.Matrix{}}
}

// SliceInto writes the sub-set [lo,hi) of the receiver into view (which must
// come from NewSetView) and returns it. The view shares the receiver's
// storage without allocating: scoring through it performs the same
// arithmetic on the same memory as scoring those rows of the receiver.
func (s *DenseSet) SliceInto(view *DenseSet, lo, hi int) *DenseSet {
	if lo < 0 || hi < lo || hi > s.Len() {
		panic(fmt.Sprintf("kernel: DenseSet slice [%d,%d) out of range [0,%d)", lo, hi, s.Len()))
	}
	c := s.mat.Cols
	view.mat.Rows, view.mat.Cols, view.mat.Data = hi-lo, c, s.mat.Data[lo*c:hi*c]
	view.norms = s.norms[lo:hi]
	return view
}

// Grow returns a new DenseSet holding the receiver's points followed by vs
// (which are copied). The receiver is left untouched and remains valid for
// concurrent readers: growing reuses the receiver's storage when the backing
// arrays have spare capacity — writes then land only in rows past the
// receiver's length — and reallocates (leaving the receiver on the old
// arrays) otherwise. Row norms are computed only for the appended rows, so a
// grow costs O(len(vs)·dim) plus an amortized O(1) storage move, not a full
// O(n·dim) rebuild.
//
// Because spare capacity is shared along the chain of grown sets, only the
// most recently grown set may be grown again, and Grow calls must be
// serialized externally (the retrieval engine's mutation lock does both).
func (s *DenseSet) Grow(vs []linalg.Vector) *DenseSet {
	if len(vs) == 0 {
		return s
	}
	if s.Len() == 0 {
		return NewDenseSet(vs)
	}
	cols := s.mat.Cols
	for _, v := range vs {
		if len(v) != cols {
			panic(fmt.Sprintf("kernel: Grow vector of dimension %d into set of dimension %d", len(v), cols))
		}
	}
	data := s.mat.Data
	for _, v := range vs {
		data = append(data, v...)
	}
	mat := &linalg.Matrix{Rows: s.mat.Rows + len(vs), Cols: cols, Data: data}

	// Same arithmetic as Matrix.RowSquaredNorms, applied only to new rows,
	// so grown norms are bit-identical to a from-scratch rebuild.
	norms := s.norms
	for i := s.mat.Rows; i < mat.Rows; i++ {
		row := data[i*cols : (i+1)*cols]
		var sum float64
		for _, x := range row {
			sum += x * x
		}
		norms = append(norms, sum)
	}
	return &DenseSet{mat: mat, norms: norms}
}

// SetKernel is a kernel with a specialized evaluation of one dense point
// against a whole DenseSet. dst[i] receives K(x, set_i); len(dst) must equal
// set.Len().
type SetKernel interface {
	Kernel
	EvalSet(x linalg.Vector, set *DenseSet, dst []float64)
}

// EvalSet stores K(x, set_i) into dst[i] for any kernel, using the kernel's
// set implementation when it has one and per-pair evaluation otherwise.
func EvalSet(k Kernel, x Point, set *DenseSet, dst []float64) {
	if sk, ok := k.(SetKernel); ok {
		if xv, ok := x.(Dense); ok {
			sk.EvalSet(linalg.Vector(xv), set, dst)
			return
		}
	}
	checkBatch(set.Len(), len(dst))
	for i := range dst {
		dst[i] = k.Eval(x, set.Point(i))
	}
}

// EvalSet implements SetKernel: one matrix-vector product over the flat
// storage. Bit-identical to the scalar dot products.
func (Linear) EvalSet(x linalg.Vector, set *DenseSet, dst []float64) {
	set.mat.MulVecInto(dst, x)
}

// EvalSet implements SetKernel: squared distances are expanded as
// ||x||^2 + norms - 2*(set*x), so the whole row is one matrix-vector
// product against the precomputed row norms. Cancellation in the expansion
// makes individual kernel values drift from the scalar path by O(1e-15)
// relative error; EXPERIMENTS.md records that every reported MAP metric is
// nevertheless unchanged to full float64 precision.
func (k RBF) EvalSet(x linalg.Vector, set *DenseSet, dst []float64) {
	set.SquaredDistancesInto(dst, x)
	for i, d := range dst {
		dst[i] = math.Exp(-k.Gamma * d)
	}
}

// AccumulateSet adds coefs[t]*K(svs_t, xs_j) for every support vector t to
// dst[j] through the tile driver of backend.go, on the four routines picked
// at package initialisation: the RBF arguments of a tile against a pair of
// support vectors, the row dot against the odd last one, the exponential
// over a tile column and the coefficient fold of a pair — all four in
// assembly on the avx2 backend, all four in Go on the unrolled one. Both
// backends perform the same floating-point operations in the same order —
// four-way-accumulator dots combined as ((s0+s1)+s2)+s3, the norm expansion
// of EvalSet, the Cephes fast exponential expOne, and coefficient pairs
// folded in support-vector order. On amd64 that makes the result the same
// bits on either backend and on every CPU (the parity tests pin both against
// the straight-line reference loop, and the golden MAPs and trajectory pins
// are amd64 values); on another architecture the compiler may fuse the Go
// routines' multiply-adds, so scores repeat from run to run there but are
// not those bits. The fast exponential is within ~2 ulp of math.Exp, so each
// accumulated score matches the per-SV math.Exp path to O(1e-15) relative
// error (EXPERIMENTS.md records the reported MAP metrics unchanged). Callers
// pre-fill dst with the bias.
func (k RBF) AccumulateSet(coefs []float64, svs, xs *DenseSet, dst []float64) {
	if len(coefs) != svs.Len() {
		panic(fmt.Sprintf("kernel: AccumulateSet has %d coefficients for %d support vectors", len(coefs), svs.Len()))
	}
	if svs.Dim() != xs.Dim() {
		panic(fmt.Sprintf("kernel: AccumulateSet dimension mismatch %d != %d", svs.Dim(), xs.Dim()))
	}
	checkBatch(xs.Len(), len(dst))
	blockAccumulateRBF(activeKernels, k.Gamma, coefs, svs, xs, dst)
}

// GramSet computes the Gram matrix of a dense set through the batched row
// path: row i is one EvalSet call over contiguous storage, reusing the set's
// precomputed norms where the kernel can.
func GramSet(k Kernel, set *DenseSet) *linalg.Matrix {
	n := set.Len()
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		EvalSet(k, set.Point(i), set, m.Row(i))
	}
	return m
}
