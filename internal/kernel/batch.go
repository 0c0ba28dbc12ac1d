package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// This file is the batched evaluation path: kernels evaluate one point
// against a whole slice of points (or a DenseSet, the flat row-major
// collection store) into a caller-provided destination, with no allocation
// and no per-pair interface dispatch in the inner loops. The scoring passes
// of every retrieval scheme run through it.

func checkBatch(n, d int) {
	if n != d {
		panic(fmt.Sprintf("kernel: destination length %d, want %d", d, n))
	}
}

// SparseSVIndex is sparse points of one dimension inverted by index: for
// each index — a log session — the (point, value) cells of the points that
// carry it, in ascending point order. One walk reads it
// (LinearAccumulateWeights): the scans' over a collection's log vectors —
// there the cells of session s are the images it judged, row s of the
// relevance matrix — and the Gram fill's over a training problem's points
// (Cache). An index is never written once it is built or extended, so
// concurrent readers share it.
type SparseSVIndex struct {
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

// NewSparseSVIndex inverts points, or returns nil when they are not sparse
// points of one dimension: none at all, a non-sparse or zero-dimension one,
// or two of different dimensions.
func NewSparseSVIndex(points []Point) *SparseSVIndex {
	if len(points) == 0 {
		return nil
	}
	dim := -1
	for _, p := range points {
		v, ok := p.(Sparse)
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
	for _, p := range points {
		for _, e := range p.(Sparse).Entries {
			start[e.Index+2]++
			n++
		}
	}
	var sum int32
	for i := 2; i < len(start); i++ {
		sum += start[i]
		start[i] = sum
	}
	cells := make([]svCell, n)
	for t, p := range points {
		for _, e := range p.(Sparse).Entries {
			cells[start[e.Index+1]] = svCell{t: int32(t), w: e.Value}
			start[e.Index+1]++
		}
	}
	return &SparseSVIndex{dim: dim, start: start[:dim+1], cells: cells}
}

// Dim returns the dimension of the indexed points, the number of indices; a
// nil index has none.
func (ix *SparseSVIndex) Dim() int {
	if ix == nil {
		return 0
	}
	return ix.dim
}

// Extend returns the index of the receiver's points with one index appended
// per row: rows[k] lists the cells of index Dim()+k as entries {Index: point,
// Value: value}, in strictly ascending point order — the inversion of giving
// every point one more component. A nil receiver is the index of no index.
// The result shares the receiver's storage and writes only past its end, so
// the receiver stays valid for its readers and an extension costs the cells
// it adds (amortized). As with DenseSet.Grow, only the most recently extended
// index may be extended again, and Extend calls must be serialized by the
// caller (the retrieval engine's mutation lock does both).
func (ix *SparseSVIndex) Extend(rows [][]sparse.Entry) *SparseSVIndex {
	out := SparseSVIndex{start: []int32{0}}
	if ix != nil {
		out = *ix
	}
	for k, row := range rows {
		for i, e := range row {
			if e.Index < 0 || i > 0 && e.Index <= row[i-1].Index {
				panic(fmt.Sprintf("kernel: Extend row %d has point %d at position %d, not in strictly ascending order", k, e.Index, i))
			}
			out.cells = append(out.cells, svCell{t: int32(e.Index), w: e.Value})
		}
		out.start = append(out.start, int32(len(out.cells)))
	}
	out.dim += len(rows)
	return &out
}

// from returns the cells of index i whose points are at least lo, found by
// a binary search over the cells, which ascend in t.
func (ix *SparseSVIndex) from(i, lo int) []svCell {
	cells := ix.cells[ix.start[i]:ix.start[i+1]]
	if len(cells) == 0 || int(cells[0].t) >= lo {
		return cells
	}
	a, b := 0, len(cells)
	for a < b {
		m := int(uint(a+b) >> 1)
		if int(cells[m].t) < lo {
			a = m + 1
		} else {
			b = m
		}
	}
	return cells[a:]
}

// AppendPositive appends to dst, ascending, the points whose cell of index i
// is positive: for a collection's log, the images session i judged relevant.
func (ix *SparseSVIndex) AppendPositive(i int, dst []int) []int {
	for _, c := range ix.cells[ix.start[i]:ix.start[i+1]] {
		if c.w > 0 {
			dst = append(dst, int(c.t))
		}
	}
	return dst
}

// weightScratch pools LinearWeights' accumulators: a sum per session, all +0
// between builds, and a bitmap of the sessions a build touched, all clear.
var weightScratch sync.Pool

type weightSums struct {
	sums    []float64
	touched []uint64
}

// LinearWeights returns a linear model's weight vector over sessions, w =
// Σ_t coefs[t]·svs[t]: w_s sums float64(coefs[t]·v_ts) over the support
// vectors t that carry session s, in ascending t from +0, and w holds exactly
// the sessions some support vector carries, ascending, whatever the sum (a
// non-finite coefficient reaches only its support vector's sessions). A
// pooled dense accumulator, read back in the order of the bitmap of the
// sessions touched, makes a build cost the entries and a bit per session and
// allocate only w. Reports false for counts that differ or a support vector
// that is not a sparse point of the first one's dimension.
func LinearWeights(coefs []float64, svs []Point) (sparse.Vector, bool) {
	if len(coefs) != len(svs) {
		return sparse.Vector{}, false
	}
	dim := 0
	for t, p := range svs {
		v, ok := p.(Sparse)
		if !ok || t > 0 && v.Dim != dim {
			return sparse.Vector{}, false
		}
		dim = v.Dim
	}
	acc, _ := weightScratch.Get().(*weightSums)
	if acc == nil || len(acc.sums) < dim {
		acc = &weightSums{sums: make([]float64, dim), touched: make([]uint64, (dim+63)/64)}
	}
	sums, touched := acc.sums, acc.touched[:(dim+63)/64]
	for t, c := range coefs {
		for _, e := range svs[t].(Sparse).Entries {
			sums[e.Index] += float64(c * e.Value)
			touched[e.Index>>6] |= 1 << (e.Index & 63)
		}
	}
	n := 0
	for _, word := range touched {
		n += bits.OnesCount64(word)
	}
	w := sparse.Vector{Dim: dim, Entries: make([]sparse.Entry, 0, n)}
	for k, word := range touched {
		for ; word != 0; word &= word - 1 {
			s := k<<6 + bits.TrailingZeros64(word)
			w.Entries = append(w.Entries, sparse.Entry{Index: s, Value: sums[s]})
			sums[s] = 0
		}
		touched[k] = 0
	}
	weightScratch.Put(acc)
	return w, true
}

// LinearAccumulateWeights adds a linear model's decision pass over the rows
// [lo, lo+len(dst)) of the points ix inverts — one scan range of the
// collection's log — to dst, walking the model's weight vector w
// (LinearWeights), whose sessions must be ix's: for each session s of w, in
// ascending order, it adds float64(w_s·y_s) into the row of each image of s
// inside the range (a binary search finds the first, the walk stops past the
// last). A row receives its sessions of w in ascending order whatever the
// range, so any cut of the rows gives the same bits. The Gram fill walks a
// training point as w (Cache).
func LinearAccumulateWeights(w sparse.Vector, ix *SparseSVIndex, lo int, dst []float64) {
	for _, e := range w.Entries {
		ws := e.Value
		for _, cell := range ix.from(e.Index, lo) {
			r := int(cell.t) - lo
			if uint(r) >= uint(len(dst)) {
				break
			}
			dst[r] += float64(ws * cell.w)
		}
	}
}

// WeightTable is a linear model's weight vector (LinearWeights) indexed by
// session, so that a row scores from its own log column without a walk of
// the index: a presence bit per session and, per 64 sessions, how many of
// w's sessions lie below them, which ranks a present session to its entry
// of w. It holds 12 bytes per 64 sessions, where a dense value per session
// would hold 512. The zero value is an empty table; Load fills it and Unload
// empties it again, so a kept table is reused without clearing.
type WeightTable struct {
	has  []uint64
	rank []int32
	w    []sparse.Entry
}

// Load indexes w into the table, which must be empty.
func (t *WeightTable) Load(w sparse.Vector) {
	words := (w.Dim + 63) / 64
	if len(t.has) < words {
		// Headroom for the sessions a few commits add.
		n := words + words/16 + 1
		t.has, t.rank = make([]uint64, n), make([]int32, n)
	}
	for _, e := range w.Entries {
		t.has[e.Index>>6] |= 1 << (e.Index & 63)
	}
	var below int32
	for k, word := range t.has[:words] {
		t.rank[k] = below
		below += int32(bits.OnesCount64(word))
	}
	t.w = w.Entries
}

// Unload empties the table of w, the vector Load indexed.
func (t *WeightTable) Unload(w sparse.Vector) {
	for _, e := range w.Entries {
		t.has[e.Index>>6] &^= 1 << (e.Index & 63)
	}
	t.w = nil
}

// Decision returns the row's linear decision value from its log column col:
// bias plus float64(w_s·y_s) for each of the column's sessions s that the
// loaded w holds, whatever its weight, in ascending order — the bits
// LinearAccumulateWeights gives the row when it starts from bias.
func (t *WeightTable) Decision(bias float64, col sparse.Vector) float64 {
	d := bias
	for _, e := range col.Entries {
		s := e.Index
		if k := s >> 6; k < len(t.has) && t.has[k]&(1<<(s&63)) != 0 {
			i := t.rank[k] + int32(bits.OnesCount64(t.has[k]&(1<<(s&63)-1)))
			d += float64(t.w[i].Value * e.Value)
		}
	}
	return d
}

// EvalBatch stores K(x, ys[j]) into dst[j], Eval's bits; len(dst) must
// equal len(ys). It is the lane that fills the trainer's RBF Gram rows
// (Cache): it writes the row's arguments −gamma·‖x − y_j‖² into dst, then
// runs the backend's exponential over the row once, which is expOne element
// for element. For a dense x, four dense points of its dimension go per
// trip, four independent chains that are each Vector.SquaredDistance's
// single accumulator over the same ascending elements, written inline so a
// pair costs no non-inlined call and no length check; every product is
// written float64(x*y). The rest, and a trip with a point of another type or
// dimension, go one at a time through SquaredDistance.
func (k RBF) EvalBatch(x Point, ys []Point, dst []float64) {
	checkBatch(len(ys), len(dst))
	j := 0
	if xv, ok := x.(Dense); ok {
		xs := []float64(xv)
		for ; j+4 <= len(ys); j += 4 {
			w0, ok0 := ys[j].(Dense)
			w1, ok1 := ys[j+1].(Dense)
			w2, ok2 := ys[j+2].(Dense)
			w3, ok3 := ys[j+3].(Dense)
			if !ok0 || !ok1 || !ok2 || !ok3 || len(w0) != len(xs) || len(w1) != len(xs) || len(w2) != len(xs) || len(w3) != len(xs) {
				break
			}
			var s0, s1, s2, s3 float64
			for i, xi := range xs {
				d0, d1, d2, d3 := xi-w0[i], xi-w1[i], xi-w2[i], xi-w3[i]
				s0 += float64(d0 * d0)
				s1 += float64(d1 * d1)
				s2 += float64(d2 * d2)
				s3 += float64(d3 * d3)
			}
			dst[j], dst[j+1], dst[j+2], dst[j+3] = -k.Gamma*s0, -k.Gamma*s1, -k.Gamma*s2, -k.Gamma*s3
		}
	}
	for ; j < len(ys); j++ {
		dst[j] = -k.Gamma * x.SquaredDistance(ys[j])
	}
	activeKernels.exp(dst)
}

// DenseSet stores a collection of dense points as one flat row-major matrix
// with precomputed squared row norms. It is the collection-storage format of
// the batched scoring path: kernel rows over the set become tight loops (or
// one matrix-vector product) over contiguous memory instead of per-point
// interface calls. A DenseSet is immutable after construction and safe for
// concurrent readers.
type DenseSet struct {
	mat   linalg.Matrix
	norms linalg.Vector
}

// NewDenseSet copies the given vectors into flat row-major storage and
// precomputes their squared norms. All vectors must have the same length.
func NewDenseSet(vs []linalg.Vector) *DenseSet {
	m := linalg.FromRows(vs)
	return &DenseSet{mat: *m, norms: m.RowSquaredNorms(make(linalg.Vector, m.Rows))}
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
	squaredDistances(activeKernels, s.mat.Data, s.mat.Rows, s.mat.Cols, s.norms, x, x.Dot(x), dst)
}

// squaredDistances is SquaredDistancesInto over the rows of mat, of squared
// norms norms, on member k's row dot; xx is x·x.
func squaredDistances(k dotKernels, mat []float64, rows, cols int, norms, x []float64, xx float64, dst []float64) {
	k.one(mat, rows, cols, x, dst)
	for i, d := range dst {
		d = norms[i] + xx - 2*d
		if d < 0 {
			d = 0
		}
		dst[i] = d
	}
}

// Prior is the query prior a scoring pass subtracts from every score: row
// i's is Weight·√d_i, d_i its squared distance to Query as
// DenseSet.SquaredDistancesInto computes it. The tile driver
// (RBF.AccumulateBounded) writes it into Lane, indexed like the scores, a
// tile at a time before the tile's first kernel columns, so a pass reads
// each row from memory once; Fill writes the same values for a pass that
// runs no tile. The zero value is no prior.
type Prior struct {
	Query  linalg.Vector
	Weight float64
	Lane   []float64
}

// Fill writes the prior of every row of set into p.Lane.
func (p Prior) Fill(set *DenseSet) {
	p.check(set)
	p.rows(activeKernels, set.mat.Data, set.Len(), set.Dim(), set.norms, p.Query.Dot(p.Query), p.Lane)
}

// check panics unless the prior fits set: a query of its dimension and a
// lane of one value per row.
func (p Prior) check(set *DenseSet) {
	if len(p.Query) != set.Dim() {
		panic(fmt.Sprintf("kernel: Prior dimension mismatch %d != %d", len(p.Query), set.Dim()))
	}
	checkBatch(set.Len(), len(p.Lane))
}

// rows writes the prior of the rows of mat, of squared norms norms, into dst
// on member k's row dot; qq is Query·Query.
func (p Prior) rows(k dotKernels, mat []float64, rows, cols int, norms []float64, qq float64, dst []float64) {
	squaredDistances(k, mat, rows, cols, norms, p.Query, qq, dst)
	for i, d := range dst {
		dst[i] = float64(p.Weight * math.Sqrt(d))
	}
}

// NewSetView returns an empty DenseSet whose header can be rewritten
// repeatedly by SliceInto. Candidate-restricted scoring loops keep one view
// per scratch arena so slicing a shard run costs zero allocations.
func NewSetView() *DenseSet {
	return &DenseSet{}
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
	mat := linalg.Matrix{Rows: s.mat.Rows + len(vs), Cols: cols, Data: data}

	// The new rows' norms alone, so grown norms are a rebuild's bits.
	norms := slices.Grow(s.norms, len(vs))[:mat.Rows]
	added := linalg.Matrix{Rows: len(vs), Cols: cols, Data: data[s.mat.Rows*cols:]}
	added.RowSquaredNorms(norms[s.mat.Rows:])
	return &DenseSet{mat: mat, norms: norms}
}

// EvalSet implements Kernel: one matrix-vector product over the flat
// storage, linalg.Matrix.MulVecInto's four-accumulator sum. Eval sums
// linalg.Vector.Dot's single chain instead, so the two differ in the last
// bits.
func (Linear) EvalSet(x linalg.Vector, set *DenseSet, dst []float64) {
	set.mat.MulVecInto(dst, x)
}

// EvalSet implements Kernel: squared distances are expanded as
// ||x||^2 + norms - 2*(set*x), so the whole row is one matrix-vector
// product against the precomputed row norms (DenseSet.SquaredDistancesInto),
// then the backend's exponential over the row's arguments, expOne's bits.
// Cancellation in the expansion makes individual kernel values drift from
// Eval by O(1e-15) relative error; EXPERIMENTS.md records that every
// reported MAP metric is nevertheless unchanged to full float64 precision.
func (k RBF) EvalSet(x linalg.Vector, set *DenseSet, dst []float64) {
	set.SquaredDistancesInto(dst, x)
	for i, d := range dst {
		dst[i] = -k.Gamma * d
	}
	activeKernels.exp(dst)
}

// AccumulateSet adds coefs[t]*K(svs_t, xs_j) for every support vector t to
// dst[j], which callers pre-fill with the bias: AccumulateBounded with no
// lanes, bound or kept working memory. Every member gives the same bits, each
// score within O(1e-15) relative of the per-support-vector sum of Eval (the
// norm expansion drifts; EXPERIMENTS.md records the MAPs unchanged).
func (k RBF) AccumulateSet(coefs []float64, svs, xs *DenseSet, dst []float64) {
	k.AccumulateBounded(coefs, svs, xs, dst, nil, Prior{}, PositiveSums{}, new(TileScratch), nil)
}

// AccumulateBounded is AccumulateSet for a scoring pass, on the caller's
// working memory ts: each score is finished as (dst + add) − prior (a nil
// lane adds nothing, the zero Prior subtracts nothing), the prior written
// into its lane as the rows are read (Prior), and a non-nil b makes it a
// top-K pass: a row proved below b's floor, or one b has scored already, is
// skipped, keeping its dst, and each tile is handed to b once scored. pos
// records a lane of positive column sums or bounds the deferred support
// vectors by one (PositiveSums; its Lane is indexed like dst). A scored row
// has the bits it has without b and without pos.
func (k RBF) AccumulateBounded(coefs []float64, svs, xs *DenseSet, dst, add []float64, prior Prior, pos PositiveSums, ts *TileScratch, b Bound) {
	if len(coefs) != svs.Len() {
		panic(fmt.Sprintf("kernel: AccumulateSet has %d coefficients for %d support vectors", len(coefs), svs.Len()))
	}
	if svs.Dim() != xs.Dim() {
		panic(fmt.Sprintf("kernel: AccumulateSet dimension mismatch %d != %d", svs.Dim(), xs.Dim()))
	}
	checkBatch(xs.Len(), len(dst))
	if pos.Record || len(pos.Deferred) > 0 {
		checkBatch(xs.Len(), len(pos.Lane))
	}
	if prior.Query != nil {
		prior.check(xs)
	}
	rbfTiles(activeKernels, k.Gamma, coefs, svs, xs, dst, add, prior, pos, ts, b)
}

// GramSet computes the Gram matrix of a dense set through the batched row
// path: row i is one EvalSet call over contiguous storage.
func GramSet(k Kernel, set *DenseSet) *linalg.Matrix {
	n := set.Len()
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		k.EvalSet(linalg.Vector(set.Point(i)), set, m.Row(i))
	}
	return m
}
