package kernel

import (
	"fmt"
	"math"

	"lrfcsvm/internal/linalg"
)

// Cache memoizes kernel evaluations between indexed points. The SMO solver
// repeatedly asks for the same rows of the Gram matrix while it sweeps
// working pairs; caching rows keeps training cost close to linear in the
// number of iterations for the small problems relevance feedback solves.
//
// Kernel values depend only on the points — never on labels or costs — so a
// cache can outlive a single training run: the coupled SVM's annealing loop
// shares one cache per modality across all its retrainings (see
// svm.Config.SharedCache).
//
// Rows live in a direct-indexed table and are kept for the life of the
// cache: relevance feedback trains on a few dozen points, so the whole Gram
// matrix is tens of kilobytes and nothing is ever evicted. It is not safe for
// concurrent use; callers sharing a cache must use it sequentially.
type Cache struct {
	kernel Kernel
	points []Point

	// rows is the direct-indexed row table; nil entries are not yet
	// computed.
	rows [][]float64

	// denseVecs is non-nil when the kernel is RBF and every point is
	// Dense: row computation then runs over the raw vectors with the
	// interface dispatch hoisted to construction. Same arithmetic as
	// RBF.EvalBatch's dense path, so cached values are bit-identical.
	denseVecs []linalg.Vector
	rbfGamma  float64

	// slab carves new rows out of shared chunks: one allocation and one
	// zeroing pass per chunk instead of per row. Rows are never evicted and
	// live as long as the cache, so a chunk cannot pin dead memory.
	slab []float64

	hits, misses int
}

// cacheSlabRows is the number of rows carved from one slab chunk.
const cacheSlabRows = 16

// NewCache builds a row cache over the given points.
func NewCache(k Kernel, points []Point) *Cache {
	c := &Cache{
		kernel: k,
		points: points,
		rows:   make([][]float64, len(points)),
	}
	if rbf, ok := k.(RBF); ok {
		vecs := make([]linalg.Vector, len(points))
		allDense := true
		for i, p := range points {
			d, isDense := p.(Dense)
			if !isDense {
				allDense = false
				break
			}
			vecs[i] = linalg.Vector(d)
		}
		if allDense && len(points) > 0 {
			c.denseVecs = vecs
			c.rbfGamma = rbf.Gamma
		}
	}
	return c
}

// Row returns the kernel row K(points[i], points[j]) for all j, computing
// and caching it on first use.
func (c *Cache) Row(i int) []float64 {
	if row := c.rows[i]; row != nil {
		c.hits++
		return row
	}
	c.misses++
	n := len(c.points)
	if len(c.slab) < n {
		c.slab = make([]float64, n*cacheSlabRows)
	}
	row := c.slab[:n:n]
	c.slab = c.slab[n:]
	if c.denseVecs != nil {
		rbfRowDense(c.rbfGamma, c.denseVecs[i], c.denseVecs, row)
	} else {
		EvalBatch(c.kernel, c.points[i], c.points, row)
	}
	c.rows[i] = row
	return row
}

// rbfRowDense evaluates one RBF Gram row over dense vectors: exactly the
// arithmetic of RBF.EvalBatch's dense path (single-accumulator
// subtract-square sum in ascending element order, then math.Exp), with the
// per-pair interface dispatch hoisted away.
func rbfRowDense(gamma float64, x linalg.Vector, pts []linalg.Vector, dst []float64) {
	xs := []float64(x)
	for j, p := range pts {
		w := []float64(p)
		if len(w) != len(xs) {
			panic(fmt.Sprintf("kernel: cache row dimension mismatch %d != %d", len(w), len(xs)))
		}
		var s float64
		for i, xi := range xs {
			d := xi - w[i]
			s += d * d
		}
		dst[j] = math.Exp(-gamma * s)
	}
}

// Stats reports cache hits and misses since creation.
func (c *Cache) Stats() (hits, misses int) { return c.hits, c.misses }

// NumPoints returns the number of points the cache is built over.
func (c *Cache) NumPoints() int { return len(c.points) }
