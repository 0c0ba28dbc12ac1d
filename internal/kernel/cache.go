package kernel

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
//
// The log modality's problem — the Linear kernel over sparse points of one
// dimension — is inverted by session once, into a SparseSVIndex (the type
// the scans walk the collection's log through), and a row is gathered
// through it: one walk over x_i's entries,
// each visiting only the points that carry that session. Every other kernel
// and point mix fills its rows with EvalBatch. Both give Eval's bits.
type Cache struct {
	kernel Kernel
	points []Point

	// index is points inverted by session when the kernel is Linear over
	// sparse points of one dimension; nil otherwise.
	index *SparseSVIndex

	// rows is the direct-indexed row table; nil entries are not yet
	// computed.
	rows [][]float64

	// slab carves new rows out of shared chunks: one allocation and one
	// zeroing pass per chunk instead of per row. Rows are never evicted and
	// live as long as the cache, so a chunk cannot pin dead memory.
	slab []float64
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
	if _, ok := k.(Linear); ok {
		c.index = NewSparseSVIndex(points)
	}
	return c
}

// Row returns the kernel row K(points[i], points[j]) for all j, computing
// and caching it on first use.
func (c *Cache) Row(i int) []float64 {
	if row := c.rows[i]; row != nil {
		return row
	}
	n := len(c.points)
	if len(c.slab) < n {
		c.slab = make([]float64, n*cacheSlabRows)
	}
	// A carved row is all +0: chunks are fresh and rows never overlap.
	row := c.slab[:n:n]
	c.slab = c.slab[n:]
	if c.index != nil {
		c.index.gather(c.points[i].(Sparse).Entries, row)
	} else {
		EvalBatch(c.kernel, c.points[i], c.points, row)
	}
	c.rows[i] = row
	return row
}

// NumPoints returns the number of points the cache is built over.
func (c *Cache) NumPoints() int { return len(c.points) }
