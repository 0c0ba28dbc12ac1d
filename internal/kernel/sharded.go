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

// NewShardedSet copies the given vectors into shards of the given size.
// shardSize <= 0 selects DefaultShardSize. All vectors must share one
// dimensionality.
func NewShardedSet(vs []linalg.Vector, shardSize int) *ShardedSet {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	s := &ShardedSet{shardSize: shardSize, n: len(vs)}
	if len(vs) > 0 {
		s.dim = len(vs[0])
	}
	for lo := 0; lo < len(vs); lo += shardSize {
		hi := lo + shardSize
		if hi > len(vs) {
			hi = len(vs)
		}
		s.shards = append(s.shards, NewDenseSet(vs[lo:hi:hi]))
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
// slice form the snapshot writer and the quantizer take, for the cost of the
// headers. Grow never rewrites a stored row, so the views stay valid, and
// must stay unwritten, however the set is grown afterwards.
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

// Grow returns a new ShardedSet holding the receiver's points followed by vs
// (which are copied). Full shards are shared with the receiver; only the
// tail shard is grown (copy-on-write through DenseSet.Grow, so concurrent
// readers of the receiver are never disturbed) and new shards are built for
// whatever spills past it. The resulting layout and every stored value are
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
	if out.dim == 0 {
		out.dim = len(vs[0])
	}
	out.shards = append(make([]*DenseSet, 0, (out.n+s.shardSize-1)/s.shardSize), s.shards...)
	i := 0
	if len(out.shards) > 0 {
		tail := out.shards[len(out.shards)-1]
		if room := s.shardSize - tail.Len(); room > 0 {
			take := room
			if take > len(vs) {
				take = len(vs)
			}
			out.shards[len(out.shards)-1] = tail.Grow(vs[:take])
			i = take
		}
	}
	for i < len(vs) {
		take := s.shardSize
		if take > len(vs)-i {
			take = len(vs) - i
		}
		out.shards = append(out.shards, NewDenseSet(vs[i:i+take:i+take]))
		i += take
	}
	return out
}
