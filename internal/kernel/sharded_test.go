package kernel

import (
	"slices"
	"testing"

	"lrfcsvm/internal/linalg"
)

// randomVectors builds n deterministic pseudo-random vectors of dimension d.
func randomVectors(n, d int, seed uint64) []linalg.Vector {
	rng := linalg.NewRNG(seed)
	out := make([]linalg.Vector, n)
	for i := range out {
		v := make(linalg.Vector, d)
		for j := range v {
			v[j] = rng.Normal(0, 1)
		}
		out[i] = v
	}
	return out
}

// identicalSets asserts two sharded sets have the same layout and
// bit-identical stored data and norms.
func identicalSets(t *testing.T, got, want *ShardedSet) {
	t.Helper()
	if got.Len() != want.Len() || got.NumShards() != want.NumShards() || got.ShardSize() != want.ShardSize() {
		t.Fatalf("layout differs: got %d points in %d shards (size %d), want %d in %d (size %d)",
			got.Len(), got.NumShards(), got.ShardSize(), want.Len(), want.NumShards(), want.ShardSize())
	}
	for si := 0; si < got.NumShards(); si++ {
		g, w := got.Shard(si), want.Shard(si)
		if g.Len() != w.Len() || g.Dim() != w.Dim() {
			t.Fatalf("shard %d shape differs: got %dx%d, want %dx%d", si, g.Len(), g.Dim(), w.Len(), w.Dim())
		}
		for i, x := range g.mat.Data {
			if !sameBits(x, w.mat.Data[i]) {
				t.Fatalf("shard %d data[%d] = %v, want %v", si, i, x, w.mat.Data[i])
			}
		}
		for i, x := range g.norms {
			if !sameBits(x, w.norms[i]) {
				t.Fatalf("shard %d norm[%d] = %v, want %v", si, i, x, w.norms[i])
			}
		}
	}
}

// TestShardedSetLayout verifies the partition arithmetic: shard count, shard
// lengths and global point addressing.
func TestShardedSetLayout(t *testing.T) {
	vs := randomVectors(23, 5, 1)
	s := NewShardedSet(vs, 8)
	if s.Len() != 23 || s.NumShards() != 3 || s.Dim() != 5 {
		t.Fatalf("got %d points, %d shards, dim %d", s.Len(), s.NumShards(), s.Dim())
	}
	for i, want := range []int{8, 8, 7} {
		if got := s.Shard(i).Len(); got != want {
			t.Errorf("shard %d has %d points, want %d", i, got, want)
		}
		if got := s.ShardStart(i); got != i*8 {
			t.Errorf("shard %d starts at %d, want %d", i, got, i*8)
		}
	}
	for i := range vs {
		p := s.Point(i)
		for j := range vs[i] {
			if p[j] != vs[i][j] {
				t.Fatalf("point %d component %d = %v, want %v", i, j, p[j], vs[i][j])
			}
		}
	}
}

// TestShardedSetGrowBoundaries pins the tail-shard grow path against a
// from-scratch rebuild for ingestion batches that exactly fill, straddle and
// overflow a shard — the layout and every stored bit must be independent of
// how the points were batched into Grow calls.
func TestShardedSetGrowBoundaries(t *testing.T) {
	const shardSize = 8
	vs := randomVectors(40, 6, 2)
	steps := []struct {
		name string
		to   int
	}{
		{"initial partial shard", 5},
		{"exactly fill shard", 8},
		{"straddle into second shard", 13},
		{"fill to boundary again", 16},
		{"overflow two full shards", 35},
		{"tail remainder", 40},
	}
	grown := NewShardedSet(nil, shardSize)
	prev := 0
	for _, step := range steps {
		grown = grown.Grow(vs[prev:step.to])
		prev = step.to
		rebuilt := NewShardedSet(vs[:step.to], shardSize)
		t.Run(step.name, func(t *testing.T) {
			identicalSets(t, grown, rebuilt)
		})
	}
}

// TestShardedSetGrowSharesFullShards verifies full shards are shared (not
// copied) across a grow, and that the receiver is left fully usable.
func TestShardedSetGrowSharesFullShards(t *testing.T) {
	vs := randomVectors(20, 4, 3)
	old := NewShardedSet(vs[:17], 8)
	grown := old.Grow(vs[17:])
	for i := 0; i < 2; i++ {
		if old.Shard(i) != grown.Shard(i) {
			t.Errorf("full shard %d was copied instead of shared", i)
		}
	}
	// The old set still reads its own tail correctly after the grow.
	for i := 16; i < 17; i++ {
		p := old.Point(i)
		for j := range vs[i] {
			if p[j] != vs[i][j] {
				t.Fatalf("old set point %d changed after Grow", i)
			}
		}
	}
	if old.Len() != 17 || grown.Len() != 20 {
		t.Fatalf("lengths: old %d, grown %d", old.Len(), grown.Len())
	}
}

// TestShardedSetGrowDimensionMismatch verifies dimension checks on growth.
func TestShardedSetGrowDimensionMismatch(t *testing.T) {
	s := NewShardedSet(randomVectors(4, 3, 4), 8)
	defer func() {
		if recover() == nil {
			t.Fatal("growing with a mismatched dimension did not panic")
		}
	}()
	s.Grow([]linalg.Vector{{1, 2}})
}

// TestSetBuilderTakesAnyRowCount: a builder told the right row count, none,
// too few or too many (an untrusted count) builds the set NewShardedSet
// builds over the same rows, and a set whose tail block has room left grows
// to what a rebuild holds — also at a dimension where maxReserveBytes caps
// the first shard's block, which then grows geometrically to the shard.
func TestSetBuilderTakesAnyRowCount(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 23} {
		vs := randomVectors(n, 3, uint64(n))
		want := NewShardedSet(vs, 8)
		for _, expect := range []int{0, -1, 1, n / 2, n - 1, n, n + 1, 3 * n, 1 << 40} {
			b := NewSetBuilder(3, 8, expect)
			for _, v := range vs {
				copy(b.Next(), v)
			}
			got := b.Set()
			identicalSets(t, got, want)
			more := randomVectors(11, 3, 99)
			identicalSets(t, got.Grow(more), NewShardedSet(append(slices.Clone(vs), more...), 8))
		}
	}

	const wide = 1 << 15 // 256 KiB a row: the first block holds three
	vs := randomVectors(23, wide, 5)
	want := NewShardedSet(vs, 8)
	for _, expect := range []int{0, 9, 1 << 40} {
		b := NewSetBuilder(wide, 8, expect)
		for _, v := range vs {
			copy(b.Next(), v)
		}
		identicalSets(t, b.Set(), want)
	}
}
