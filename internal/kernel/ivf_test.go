package kernel

import (
	"context"
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
)

// clusteredVectors synthesizes n dim-dimensional points drawn around a
// handful of well-separated Gaussian centers — the shape the IVF cells are
// meant to discover.
func clusteredVectors(n, dim, centers int, seed uint64) []linalg.Vector {
	rng := linalg.NewRNG(seed)
	means := make([]linalg.Vector, centers)
	for c := range means {
		m := make(linalg.Vector, dim)
		for j := range m {
			m[j] = rng.Range(-4, 4)
		}
		means[c] = m
	}
	vs := make([]linalg.Vector, n)
	for i := range vs {
		m := means[i%centers]
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = m[j] + rng.Normal(0, 0.3)
		}
		vs[i] = v
	}
	return vs
}

func TestCentroidIndexPartitionInvariant(t *testing.T) {
	set := NewShardedSet(clusteredVectors(300, 8, 5, 11), 64)
	ix, err := BuildCentroidIndex(context.Background(), set, CentroidConfig{Clusters: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 300 || ix.dim != 8 || ix.NumClusters() != 9 {
		t.Fatalf("index shape = (%d,%d,%d)", ix.Len(), ix.dim, ix.NumClusters())
	}
	seen := make([]int, 300)
	for c := 0; c < ix.NumClusters(); c++ {
		prev := int32(-1)
		for _, m := range ix.Members(c) {
			if m <= prev {
				t.Fatalf("cell %d member list not strictly ascending at %d", c, m)
			}
			prev = m
			seen[m]++
		}
	}
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("point %d appears in %d cells, want exactly 1", i, cnt)
		}
	}
}

// Building twice over the same points must reproduce the exact same cells:
// the pruned path's reproducibility rests on this.
func TestCentroidIndexDeterministic(t *testing.T) {
	vs := clusteredVectors(200, 6, 4, 3)
	a, err := BuildCentroidIndex(context.Background(), NewShardedSet(vs, 64), CentroidConfig{Clusters: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A different shard size must not matter either: the build reads points
	// in global order regardless of shard layout.
	b, err := BuildCentroidIndex(context.Background(), NewShardedSet(vs, 17), CentroidConfig{Clusters: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range a.centroids.Data {
		if x != b.centroids.Data[i] {
			t.Fatalf("centroid data diverges at %d: %v != %v", i, x, b.centroids.Data[i])
		}
	}
	for c := 0; c < a.NumClusters(); c++ {
		am, bm := a.Members(c), b.Members(c)
		if len(am) != len(bm) {
			t.Fatalf("cell %d size %d != %d", c, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("cell %d member %d: %d != %d", c, i, am[i], bm[i])
			}
		}
	}
}

func TestCentroidIndexProbe(t *testing.T) {
	set := NewShardedSet(clusteredVectors(240, 8, 6, 7), 0)
	ix, err := BuildCentroidIndex(context.Background(), set, CentroidConfig{Clusters: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := linalg.Vector(set.Point(3))

	cells := ix.Probe(q, 3)
	if len(cells) != 3 {
		t.Fatalf("Probe returned %d cells, want 3", len(cells))
	}
	// Nearest-first: distances must be non-decreasing, and the first cell
	// must be the true nearest centroid.
	prev := math.Inf(-1)
	for _, c := range cells {
		d := q.SquaredDistance(ix.centroids.Row(c))
		if d < prev {
			t.Fatalf("probe order not nearest-first: %v after %v", d, prev)
		}
		prev = d
	}
	best, bestD := -1, math.Inf(1)
	for c := 0; c < ix.NumClusters(); c++ {
		if d := q.SquaredDistance(ix.centroids.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	if cells[0] != best {
		t.Fatalf("probe[0] = %d, want nearest centroid %d", cells[0], best)
	}

	// nprobe clamps on both ends.
	if got := ix.Probe(q, 0); len(got) != 1 {
		t.Fatalf("Probe(0) returned %d cells, want 1", len(got))
	}
	if got := ix.Probe(q, 100); len(got) != ix.NumClusters() {
		t.Fatalf("Probe(100) returned %d cells, want all %d", len(got), ix.NumClusters())
	}
}

func TestBuildCentroidIndexCancelled(t *testing.T) {
	set := NewShardedSet(clusteredVectors(64, 4, 2, 5), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCentroidIndex(ctx, set, CentroidConfig{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBuildCentroidIndexEmptySet(t *testing.T) {
	if _, err := BuildCentroidIndex(context.Background(), NewShardedSet(nil, 0), CentroidConfig{}); err == nil {
		t.Fatal("expected an error building over an empty set")
	}
}

// SliceInto must alias the receiver's storage, with no allocations once the
// view exists.
func TestDenseSetSliceInto(t *testing.T) {
	set := NewDenseSet(clusteredVectors(40, 5, 3, 9))
	view := NewSetView()
	for _, r := range [][2]int{{0, 40}, {3, 17}, {17, 17}, {39, 40}} {
		lo, hi := r[0], r[1]
		got := set.SliceInto(view, lo, hi)
		if got != view {
			t.Fatal("SliceInto did not return its view")
		}
		if got.Len() != hi-lo || got.Dim() != set.Dim() {
			t.Fatalf("view shape (%d,%d), want (%d,%d)", got.Len(), got.Dim(), hi-lo, set.Dim())
		}
		for i := 0; i < got.Len(); i++ {
			if &got.Point(i)[0] != &set.Point(lo + i)[0] {
				t.Fatalf("view row %d does not alias row %d of the set", i, lo+i)
			}
			if &got.norms[i] != &set.norms[lo+i] {
				t.Fatalf("view norm %d does not alias norm %d of the set", i, lo+i)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		set.SliceInto(view, 5, 25)
	})
	if allocs != 0 {
		t.Fatalf("SliceInto allocates %v per run, want 0", allocs)
	}
}
