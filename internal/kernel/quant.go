package kernel

import (
	"fmt"
	"math"
	"sync"

	"lrfcsvm/internal/linalg"
)

// This file is the int8 quantized scan lane: a compressed shadow copy of a
// dense vector collection for approximate distance scans. Each dimension is
// quantized symmetrically — code = round(v / scale_d) clamped to
// [-127, 127], scale_d = maxabs_d / 127 — so a row costs one byte per
// dimension instead of eight and the scan's memory traffic drops 8×. The
// lane is strictly a candidate generator: approximate distances decide only
// WHICH images are worth exact scoring (an oversampled top-m), never how
// the surviving images are ordered or scored. Survivors are re-scored by
// the exact path, so their final scores are bit-identical to an exhaustive
// exact scan.

// QuantizedSet is the int8 shadow copy of a vector collection.
type QuantizedSet struct {
	n, dim int
	// scales holds the per-dimension dequantization step, maxabs_d/127,
	// computed over the whole collection; 0 for dimensions that are zero
	// in every vector (their codes are all zero, reconstructing exactly).
	scales []float64
	// codes holds the quantized rows, row-major n×dim.
	codes []int8
	// recNorms caches the squared norm of each dequantized row,
	// Σ_d (scale_d·code_d)², so the scan can use the norm decomposition
	// |q-r|² = |q|² + |r|² - 2·q·r and spend only one multiply-add per
	// element instead of recomputing the reconstruction per scan.
	recNorms []float64
}

// NewQuantizedSet quantizes a collection. All vectors must share one
// dimension. Non-finite values are clamped like any other out-of-range
// value, so a NaN/Inf input cannot poison the scan — at worst its image
// ranks arbitrarily in the approximate pass and the exact re-score decides.
func NewQuantizedSet(vs []linalg.Vector) *QuantizedSet {
	q := &QuantizedSet{n: len(vs)}
	if len(vs) == 0 {
		return q
	}
	q.dim = len(vs[0])
	q.scales = make([]float64, q.dim)
	for i, v := range vs {
		if len(v) != q.dim {
			panic(fmt.Sprintf("kernel: quantized set vector %d has dimension %d, want %d", i, len(v), q.dim))
		}
		for d, x := range v {
			if a := math.Abs(x); a > q.scales[d] && !math.IsInf(x, 0) && !math.IsNaN(x) {
				q.scales[d] = a
			}
		}
	}
	for d := range q.scales {
		q.scales[d] /= 127
	}
	q.codes = make([]int8, q.n*q.dim)
	q.recNorms = make([]float64, q.n)
	for i, v := range vs {
		row := q.codes[i*q.dim : (i+1)*q.dim]
		var norm float64
		for d, x := range v {
			row[d] = quantizeOne(x, q.scales[d])
			r := q.scales[d] * float64(row[d])
			norm += r * r
		}
		q.recNorms[i] = norm
	}
	return q
}

// quantizeOne maps one value to its code: round to nearest (halves away
// from zero, math.Round), clamped to the symmetric range [-127, 127].
func quantizeOne(x, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	r := math.Round(x / scale)
	if r > 127 {
		return 127
	}
	if r < -127 {
		return -127
	}
	if r != r { // NaN input: pin to zero deterministically
		return 0
	}
	return int8(r)
}

// quantScratchPool recycles the per-scan folded-query buffer.
var quantScratchPool = sync.Pool{New: func() any { s := []float64(nil); return &s }}

// ApproxSquaredDistances stores into dst[i] the squared Euclidean distance
// between query and the dequantized row i, for rows [lo, lo+len(dst)),
// computed through the norm decomposition |q-r|² = |q|² + |r|² - 2·q·r with
// the per-dimension scale folded into the query once (q·r = Σ_d
// (query_d·scale_d)·code_d). Row norms are cached at build time, so the
// inner loop is one int8 load, one convert and one multiply-add per element
// — against a code matrix 8× smaller than the float64 rows. The result is
// deterministic but approximate twice over: quantization error is at most
// scale_d/2 per in-range dimension, and the decomposition rounds differently
// than the direct subtract-square sum (it can even go slightly negative for
// near-identical vectors). Both are absorbed by callers oversampling and
// exactly re-scoring the survivors.
func (q *QuantizedSet) ApproxSquaredDistances(query linalg.Vector, lo int, dst []float64) {
	if len(query) != q.dim {
		panic(fmt.Sprintf("kernel: quantized scan query dimension %d, want %d", len(query), q.dim))
	}
	if lo < 0 || lo+len(dst) > q.n {
		panic(fmt.Sprintf("kernel: quantized scan rows [%d,%d) out of range [0,%d)", lo, lo+len(dst), q.n))
	}
	bufp := quantScratchPool.Get().(*[]float64)
	w := *bufp
	if cap(w) < q.dim {
		w = make([]float64, q.dim)
	}
	w = w[:q.dim]
	var qn float64
	for d, x := range query {
		w[d] = x * q.scales[d]
		qn += x * x
	}
	dim := q.dim
	recNorms := q.recNorms[lo:]
	codes := q.codes[lo*dim:]
	for i := range dst {
		row := codes[i*dim : i*dim+dim : i*dim+dim]
		var s0, s1, s2, s3 float64
		d := 0
		// Constant-length subslices per quad let the compiler drop the
		// per-element bounds checks, which otherwise dominate this loop.
		for ; d+4 <= len(row); d += 4 {
			r := row[d : d+4 : d+4]
			x := w[d : d+4 : d+4]
			s0 += x[0] * float64(r[0])
			s1 += x[1] * float64(r[1])
			s2 += x[2] * float64(r[2])
			s3 += x[3] * float64(r[3])
		}
		for ; d < len(row); d++ {
			s0 += w[d] * float64(row[d])
		}
		dot := ((s0 + s1) + s2) + s3
		dst[i] = qn + recNorms[i] - 2*dot
	}
	*bufp = w
	quantScratchPool.Put(bufp)
}
