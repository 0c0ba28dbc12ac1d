package kernel

// Cache is the Gram matrix of a training problem's points, which the SMO
// solver reads a row at a time. Relevance feedback trains on a few dozen
// points, so the whole matrix is tens of kilobytes: it is filled on the first
// Row call (a one-class problem reads none and computes nothing) and kept.
// The fill is symmetric: each unordered pair is evaluated once, as row i's
// entry j ≥ i, and mirrored. Every kernel and point type in the package gives
// the same bits for (x, y) and (y, x) — the dense RBF squares ±d, the sparse
// dot adds the same products in the same ascending-session order, the sparse
// RBF adds the two norms — so each entry is Eval's bits either way round.
//
// The log modality's problem — the Linear kernel over sparse points of one
// dimension — is inverted by session into a SparseSVIndex, and row i is the
// scans' walk through it (LinearAccumulateWeights) with x_i as the weight
// vector: from +0, Sparse.Dot's products, operands swapped, in its order.
// RBF fills its rows through RBF.EvalBatch, whose dense lane is the trainer's
// visual Gram rows, and any other kernel or point mix through Eval. All give
// Eval's bits. A cache is not safe for concurrent use.
//
// A cache keeps its storage when it is bound to other points (Reset, Grow):
// the matrix, the inversion and a grown cache's point list are reused, grown
// but never shrunk, so a training arena that rebinds its caches every refine
// allocates nothing once they have grown.
type Cache struct {
	kernel Kernel
	points []Point
	base   *Cache    // the cache this one was grown from, until the fill
	gram   []float64 // row-major; empty until the first Row
	// index is points inverted by session, kept by a fill from no filled
	// base when the kernel is Linear over sparse points of one dimension;
	// ix is its storage, and that of a grown cache's inversion of its new
	// points. grown is the storage of a grown cache's points.
	index *SparseSVIndex
	ix    SparseSVIndex
	grown []Point
}

// Reset makes the receiver the Gram matrix of the given points under k,
// keeping its storage; the zero Cache is ready for it. The points are kept,
// not copied.
func (c *Cache) Reset(k Kernel, points []Point) {
	c.kernel, c.points, c.base, c.gram, c.index = k, points, nil, c.gram[:0], nil
}

// Grow makes dst the Gram matrix of the receiver's points followed by more,
// keeping dst's storage, and returns it. When the receiver is filled by the
// first Row call of dst, its pairs are copied and only the pairs that
// involve a point of more are evaluated: LRF-CSVM's coupled problem is its
// step 1 problem's points followed by the drafted ones, so a refine computes
// each Gram entry once. The receiver must stay bound to its points until
// then.
func (c *Cache) Grow(dst *Cache, more []Point) *Cache {
	dst.grown = append(append(dst.grown[:0], c.points...), more...)
	dst.Reset(c.kernel, dst.grown)
	dst.base = c
	return dst
}

// Points returns the points of the matrix, in row order.
func (c *Cache) Points() []Point { return c.points }

// Row returns the kernel row K(points[i], points[j]) for all j.
func (c *Cache) Row(i int) []float64 {
	if len(c.gram) == 0 {
		c.fill()
	}
	n := len(c.points)
	return c.gram[i*n : (i+1)*n : (i+1)*n]
}

// fill computes the Gram matrix: the block of the first n0 points is the
// filled base's, copied (n0 = 0 without one), and every later point i
// evaluates its row against those points and against points i.. and mirrors
// it into column i. The walk needs the base's index beside the new points'
// one, of the same dimension; a base grown from a filled cache kept none,
// so a Linear cache grown twice fills through Eval. The walked cells start
// at +0: the copy and the mirrors write only other cells.
func (c *Cache) fill() {
	n := len(c.points)
	g := resize(c.gram, n*n)
	clear(g)
	n0 := 0
	var head, tail *SparseSVIndex
	if b := c.base; b != nil && len(b.gram) > 0 {
		n0, head = len(b.points), b.index
		for i := range n0 {
			copy(g[i*n:i*n+n0], b.gram[i*n0:(i+1)*n0])
		}
	}
	c.base = nil
	if _, ok := c.kernel.(Linear); ok {
		tail = c.ix.invert(c.points[n0:])
		if n0 == 0 {
			c.index = tail
		} else if head.Dim() != tail.Dim() {
			tail = nil
		}
	}
	for i := n0; i < n; i++ {
		row := g[i*n : (i+1)*n]
		if tail != nil {
			x := *c.points[i].(Sparse).Vector
			if n0 > 0 {
				LinearAccumulateWeights(x, head, 0, row[:n0])
			}
			LinearAccumulateWeights(x, tail, i-n0, row[i:])
		} else {
			c.evalRow(c.points[i], c.points[:n0], row[:n0])
			c.evalRow(c.points[i], c.points[i:], row[i:])
		}
		for j, v := range row {
			g[j*n+i] = v
		}
	}
	c.gram = g
}

// evalRow stores K(x, ys[j]) into dst[j] for a row the walk does not take.
func (c *Cache) evalRow(x Point, ys []Point, dst []float64) {
	if rbf, ok := c.kernel.(RBF); ok {
		rbf.EvalBatch(x, ys, dst)
		return
	}
	for j, y := range ys {
		dst[j] = c.kernel.Eval(x, y)
	}
}
