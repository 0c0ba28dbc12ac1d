package kernel

import (
	"fmt"
	"math"
	"sync"

	"lrfcsvm/internal/linalg"
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

// EvalBatch implements BatchKernel.
func (Linear) EvalBatch(x Point, ys []Point, dst []float64) {
	checkBatch(len(ys), len(dst))
	switch xv := x.(type) {
	case Dense:
		for j, y := range ys {
			if yv, ok := y.(Dense); ok {
				dst[j] = linalg.Vector(xv).Dot(linalg.Vector(yv))
			} else {
				dst[j] = x.Dot(y)
			}
		}
	case Sparse:
		if len(ys) >= sparseScatterMinBatch && xv.Dim > 0 {
			linearSparseBatch(xv, ys, dst)
			return
		}
		for j, y := range ys {
			if yv, ok := y.(Sparse); ok {
				dst[j] = xv.Vector.Dot(yv.Vector)
			} else {
				dst[j] = x.Dot(y)
			}
		}
	default:
		for j, y := range ys {
			dst[j] = x.Dot(y)
		}
	}
}

// sparseScatterMinBatch is the batch size from which the scatter/gather
// sparse dot pays for the O(nnz(x)) scatter and clear passes. Below it the
// per-pair merge join wins.
const sparseScatterMinBatch = 4

// scatterPool recycles dense scatter buffers for the sparse batch path.
// Every buffer in the pool is all-zero: linearSparseBatch clears exactly
// the entries it scattered before returning its buffer.
var scatterPool = sync.Pool{New: func() any { return new([]float64) }}

// linearSparseBatch computes dst[j] = <x, ys[j]> for a sparse x by
// scattering x into a dense buffer once and gathering each y's entries
// against it, replacing len(ys) merge joins over x with one O(nnz(x))
// scatter plus an O(nnz(y)) gather per y. Because sparse vectors never
// store zero entries, "buf[e.Index] != 0" holds exactly for the indices x
// carries, so the gathered products are the matched products of the merge
// join, accumulated in the same ascending-index order — the result is
// bit-identical to sparse.Vector.Dot.
func linearSparseBatch(x Sparse, ys []Point, dst []float64) {
	bp := scatterPool.Get().(*[]float64)
	buf := *bp
	if cap(buf) >= x.Dim {
		buf = buf[:x.Dim]
	} else {
		buf = make([]float64, x.Dim)
	}
	for _, e := range x.Entries {
		buf[e.Index] = e.Value
	}
	for j, y := range ys {
		yv, ok := y.(Sparse)
		if !ok {
			dst[j] = x.Dot(y)
			continue
		}
		if yv.Dim != x.Dim {
			dst[j] = x.Vector.Dot(yv.Vector)
			continue
		}
		var s float64
		for _, e := range yv.Entries {
			if w := buf[e.Index]; w != 0 {
				s += w * e.Value
			}
		}
		dst[j] = s
	}
	for _, e := range x.Entries {
		buf[e.Index] = 0
	}
	*bp = buf
	scatterPool.Put(bp)
}

// svMatPool recycles the dim×nsv scatter matrices of the transposed
// multi-support-vector sparse path. Like scatterPool, every buffer in the
// pool is all-zero: LinearAccumulateSparse clears exactly the entries it
// scattered before returning its matrix.
var svMatPool = sync.Pool{New: func() any { return new([]float64) }}

// LinearAccumulateSparse accumulates a whole linear decision pass,
// dst[j] += Σ_t coefs[t]·<svs[t], ys[j]>, for sparse support vectors. It
// transposes the work: instead of one scatter/gather sweep over ys per
// support vector, it scatters all support vectors once into a dim×nsv
// column matrix and gathers every per-SV dot for an image in a single walk
// of that image's entries, with the nsv running sums hot in one small
// accumulator. Reports false (leaving dst untouched) when the shapes do not
// fit — fewer than two support vectors, a non-sparse or zero-dimension
// support vector, or a batch too small to amortize the scatter.
//
// Bit-exactness: for a fixed support vector t, the gathered products are
// the matched products of the merge join in the same ascending-index order
// (sparse vectors never store zeros, so "column[t] != 0" holds exactly for
// the indices svs[t] carries), making each per-SV dot bit-identical to
// Sparse.Dot; the final fold adds coefs[t]·dot_t into dst[j] in ascending
// t, the accumulation order of the per-SV pass. The whole call is therefore
// bit-for-bit equal to nsv successive Linear.EvalBatch accumulations — also
// for the rows it skips: an empty ys[j] leaves a nonzero dst[j] as it is.
func LinearAccumulateSparse(coefs []float64, svs, ys []Point, dst []float64) bool {
	if len(coefs) != len(svs) || len(svs) < 2 || len(ys) < sparseScatterMinBatch {
		return false
	}
	checkBatch(len(ys), len(dst))
	dim := -1
	for _, sv := range svs {
		v, ok := sv.(Sparse)
		if !ok || v.Dim <= 0 {
			return false
		}
		if dim < 0 {
			dim = v.Dim
		} else if v.Dim != dim {
			return false
		}
	}
	nsv := len(svs)
	mp := svMatPool.Get().(*[]float64)
	mat := *mp
	if cap(mat) >= dim*nsv {
		mat = mat[:dim*nsv]
	} else {
		mat = make([]float64, dim*nsv)
	}
	for t, sv := range svs {
		for _, e := range sv.(Sparse).Entries {
			mat[e.Index*nsv+t] = e.Value
		}
	}
	acc := make([]float64, nsv)
	for j, y := range ys {
		yv, ok := y.(Sparse)
		if !ok || yv.Dim != dim {
			s := dst[j]
			for t, sv := range svs {
				s += coefs[t] * sv.Dot(y)
			}
			dst[j] = s
			continue
		}
		if len(yv.Entries) == 0 && dst[j] != 0 {
			// An image without log entries has every dot equal to +0, and a
			// nonzero dst[j] absorbs the ±0 terms unchanged. (A zero dst[j]
			// may change sign in the fold, so it takes the full path.)
			continue
		}
		for t := range acc {
			acc[t] = 0
		}
		for _, e := range yv.Entries {
			col := mat[e.Index*nsv : e.Index*nsv+nsv]
			x := e.Value
			for t, w := range col {
				if w != 0 {
					acc[t] += w * x
				}
			}
		}
		s := dst[j]
		for t, a := range acc {
			s += coefs[t] * a
		}
		dst[j] = s
	}
	for t, sv := range svs {
		for _, e := range sv.(Sparse).Entries {
			mat[e.Index*nsv+t] = 0
		}
	}
	*mp = mat
	svMatPool.Put(mp)
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

// Matrix returns the flat row-major storage. Callers must not mutate it.
func (s *DenseSet) Matrix() *linalg.Matrix { return s.mat }

// Norms returns the precomputed squared row norms. Callers must not mutate
// the returned slice.
func (s *DenseSet) Norms() linalg.Vector { return s.norms }

// Point returns point i as a view into the flat storage.
func (s *DenseSet) Point(i int) Dense { return Dense(s.mat.Row(i)) }

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
// relative error (see EvalSetExact); EXPERIMENTS.md records that every
// reported MAP metric is nevertheless unchanged to full float64 precision.
func (k RBF) EvalSet(x linalg.Vector, set *DenseSet, dst []float64) {
	set.mat.RowSquaredDistancesNormInto(dst, x, set.norms)
	for i, d := range dst {
		dst[i] = math.Exp(-k.Gamma * d)
	}
}

// AccumulateSet adds coefs[t]*K(svs_t, xs_j) for every support vector t to
// dst[j] through the tile driver of backend.go, on the three routines (pair
// dot, single dot, exponential) picked at package initialisation. Both
// backends perform the same floating-point operations in the same order —
// four-way-accumulator dots combined as ((s0+s1)+s2)+s3, the norm expansion
// of EvalSet, the Cephes fast exponential expOne, and coefficient pairs
// folded in support-vector order — so the result is bit-identical on every
// build and CPU (the parity tests pin both against the straight-line
// reference loop). The fast
// exponential is within ~2 ulp of math.Exp, so each accumulated score
// matches the per-SV math.Exp path to O(1e-15) relative error
// (EXPERIMENTS.md records the reported MAP metrics unchanged). Callers
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
