package kernel

import (
	"fmt"

	"lrfcsvm/internal/linalg"
)

// ShardedSet partitions a dense point collection into fixed-size shards, each
// stored as its own DenseSet (flat row-major matrix, precomputed squared row
// norms). Shards are the unit of work of the sharded scoring path: every shard
// is a self-contained, cache-local slab that workers can score independently,
// and growing the collection touches only the tail shard — full shards are
// shared between the old and the grown set, so ingestion cost is bounded by
// the shard size regardless of collection size.
//
// Shard boundaries depend only on the shard size, never on how the
// collection was batched into Grow calls, so a grown set is layout- and
// bit-identical to a set built from scratch over the same points.
//
// A ShardedSet is immutable after construction and safe for concurrent
// readers; like DenseSet.Grow, only the most recently grown set may be grown
// again and Grow calls must be serialized externally.
type ShardedSet struct {
	shardSize int
	n         int
	dim       int
	shards    []*DenseSet
}

// DefaultShardSize is the shard size selected by a non-positive request:
// at the 36-dimensional descriptors of this system a shard is ~590 KiB of
// row data, small enough to stay cache-local per worker while keeping the
// per-shard scheduling overhead negligible.
const DefaultShardSize = 2048

// NewShardedSet copies the given vectors into shards of the given size
// through a SetBuilder. shardSize <= 0 selects DefaultShardSize. All vectors
// must share one dimensionality.
func NewShardedSet(vs []linalg.Vector, shardSize int) *ShardedSet {
	dim := 0
	if len(vs) > 0 {
		dim = len(vs[0])
	}
	b := NewSetBuilder(dim, shardSize, len(vs))
	for i, v := range vs {
		if len(v) != dim {
			panic(fmt.Sprintf("kernel: vector %d has dimension %d, set has %d", i, len(v), dim))
		}
		copy(b.Next(), v)
	}
	return b.Set()
}

// SetBuilder builds a ShardedSet row by row, straight into the shards'
// storage: each shard is one block holding its rows and then their squared
// norms, allocated when the shard's first row arrives, so a build allocates
// one block per shard and nothing per row. It is the one way a ShardedSet's
// shards are made: NewShardedSet copies a slice of rows through it, Grow
// builds the shards past the tail with it, and a decoder writes each row in
// place (Next).
type SetBuilder struct {
	shardSize, dim int
	expect         int // rows the caller announced; sizes blocks, never trusted
	n              int // rows in sealed shards
	shards         []DenseSet
	block          []float64 // the open shard: capRows rows, then capRows norms
	capRows, rows  int
}

// maxExpectedShards caps the shard table NewSetBuilder sizes up front, so a
// row count read from an untrusted file reserves a few kilobytes at most.
const maxExpectedShards = 1024

// maxReserveBytes bounds the rows a block reserves ahead of those that have
// arrived: at most as many rows as the build holds so far, or this many
// bytes of them, whichever is more. A row count read from an untrusted file
// thus reserves no more than the rows it delivers, whatever the dimension;
// at the 36-dimensional descriptors of this system it exceeds a shard, so
// each shard still takes one block.
const maxReserveBytes = 1 << 20

// NewSetBuilder starts a set of dim-dimensional points in shards of
// shardSize rows (<= 0 selects DefaultShardSize). expect is the number of
// rows the caller expects, or 0 if unknown. It sizes the last shard's block
// exactly and the shard table up front; it reserves no row storage, and a
// block reserves no more than maxReserveBytes ahead of the rows that have
// arrived, so a count that overstates costs at most that. More rows than
// expected are still taken.
func NewSetBuilder(dim, shardSize, expect int) *SetBuilder {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	return &SetBuilder{
		shardSize: shardSize, dim: dim, expect: expect,
		shards: make([]DenseSet, 0, min(max(expect, 0)/shardSize+1, maxExpectedShards)),
	}
}

// Next returns the storage of the next row, dim values that the caller
// writes in full before it calls Next or Set again.
func (b *SetBuilder) Next() linalg.Vector {
	if b.rows == b.capRows {
		if b.rows == b.shardSize {
			b.seal()
		}
		b.widen()
	}
	row := b.block[b.rows*b.dim : (b.rows+1)*b.dim : (b.rows+1)*b.dim]
	b.rows++
	return row
}

// widen makes room for one more row in the open shard: a new shard's block
// holds the shard or the rows still expected, whichever is fewer; a block
// that more rows than expected reach is widened to the whole shard. Either
// is capped by maxReserveBytes' rule, so a block that reaches the cap grows
// geometrically up to the shard.
func (b *SetBuilder) widen() {
	capRows := b.shardSize
	if left := b.expect - b.n; b.rows == 0 && left > 0 && left < capRows {
		capRows = left
	}
	capRows = min(capRows, b.rows+max(b.n+b.rows, maxReserveBytes/(8*(b.dim+1)), 1))
	block := make([]float64, capRows*(b.dim+1))
	copy(block, b.block[:b.rows*b.dim])
	b.block, b.capRows = block, capRows
}

// seal closes the open shard: its norms are computed into the block's tail,
// and its rows and norms keep the block's spare room as capacity, so the
// tail shard grows in place (DenseSet.Grow).
func (b *SetBuilder) seal() {
	if b.rows == 0 {
		return
	}
	rows, end := b.rows*b.dim, b.capRows*b.dim
	mat := linalg.Matrix{Rows: b.rows, Cols: b.dim, Data: b.block[:rows:end]}
	norms := mat.RowSquaredNorms(b.block[end : end+b.rows : end+b.capRows])
	b.shards = append(b.shards, DenseSet{mat: mat, norms: norms})
	b.n += b.rows
	b.block, b.capRows, b.rows = nil, 0, 0
}

// Set ends the build and returns the set; the builder is not used again.
func (b *SetBuilder) Set() *ShardedSet {
	b.seal()
	s := &ShardedSet{shardSize: b.shardSize, n: b.n, dim: b.dim, shards: make([]*DenseSet, len(b.shards))}
	for i := range b.shards {
		s.shards[i] = &b.shards[i]
	}
	return s
}

// Len returns the number of points in the set.
func (s *ShardedSet) Len() int { return s.n }

// Dim returns the dimensionality of the points (0 for an empty set).
func (s *ShardedSet) Dim() int { return s.dim }

// ShardSize returns the configured shard capacity.
func (s *ShardedSet) ShardSize() int { return s.shardSize }

// NumShards returns the number of shards.
func (s *ShardedSet) NumShards() int { return len(s.shards) }

// Shard returns shard i. All shards hold exactly ShardSize points except
// possibly the last.
func (s *ShardedSet) Shard(i int) *DenseSet { return s.shards[i] }

// ShardStart returns the global index of the first point of shard i.
func (s *ShardedSet) ShardStart(i int) int { return i * s.shardSize }

// Point returns point i (global index) as a view into its shard's storage.
func (s *ShardedSet) Point(i int) Dense {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("kernel: ShardedSet point %d out of range [0,%d)", i, s.n))
	}
	return s.shards[i/s.shardSize].Point(i % s.shardSize)
}

// Rows returns every point in order as views into the shards' storage: the
// slice form the quantizer takes, for the cost of the headers. Grow never
// rewrites a stored row, so the views stay valid, and must stay unwritten,
// however the set is grown afterwards.
func (s *ShardedSet) Rows() []linalg.Vector {
	rows := make([]linalg.Vector, 0, s.n)
	for _, shard := range s.shards {
		for i := 0; i < shard.Len(); i++ {
			row := shard.Point(i)
			rows = append(rows, linalg.Vector(row[:len(row):len(row)]))
		}
	}
	return rows
}

// SquaredNorm returns the stored squared norm of point i (global index):
// the sum of its squared components in order, linalg.Vector.Dot's bits.
func (s *ShardedSet) SquaredNorm(i int) float64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("kernel: ShardedSet point %d out of range [0,%d)", i, s.n))
	}
	return s.shards[i/s.shardSize].norms[i%s.shardSize]
}

// GatherInto copies the points rows names, in that order, and their stored
// norms into block, reusing its storage, and returns it: a block of rows
// from anywhere in the set that scores each row as the row scores in place,
// every batched path computing a row from its own values and norm. block
// must be the caller's own set, never a view (SliceInto), whose storage is
// a shard's.
func (s *ShardedSet) GatherInto(block *DenseSet, rows []int) *DenseSet {
	data, norms := block.mat.Data[:0], block.norms[:0]
	for _, r := range rows {
		data = append(data, s.Point(r)...)
		norms = append(norms, s.SquaredNorm(r))
	}
	block.mat = linalg.Matrix{Rows: len(rows), Cols: s.dim, Data: data}
	block.norms = norms
	return block
}

// Grow returns a new ShardedSet holding the receiver's points followed by vs
// (which are copied). Full shards are shared with the receiver; only the
// tail shard is grown (copy-on-write through DenseSet.Grow, so concurrent
// readers of the receiver are never disturbed) and the shards past it are
// built by a SetBuilder. The resulting layout and every stored value are
// bit-identical to a from-scratch NewShardedSet over the same points.
func (s *ShardedSet) Grow(vs []linalg.Vector) *ShardedSet {
	if len(vs) == 0 {
		return s
	}
	if s.n > 0 {
		for _, v := range vs {
			if len(v) != s.dim {
				panic(fmt.Sprintf("kernel: Grow vector of dimension %d into set of dimension %d", len(v), s.dim))
			}
		}
	}
	out := &ShardedSet{shardSize: s.shardSize, n: s.n + len(vs), dim: s.dim}
	out.shards = append(make([]*DenseSet, 0, (out.n+s.shardSize-1)/s.shardSize), s.shards...)
	i := 0
	if len(out.shards) > 0 {
		tail := out.shards[len(out.shards)-1]
		if room := s.shardSize - tail.Len(); room > 0 {
			i = min(room, len(vs))
			out.shards[len(out.shards)-1] = tail.Grow(vs[:i])
		}
	}
	if i < len(vs) {
		spill := NewShardedSet(vs[i:], s.shardSize)
		out.shards = append(out.shards, spill.shards...)
		if s.n == 0 {
			out.dim = spill.dim
		}
	}
	return out
}
