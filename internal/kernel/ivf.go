package kernel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"lrfcsvm/internal/linalg"
)

// This file is the approximate candidate-generation index of the sub-linear
// query path: an IVF-style (inverted-file) partition of a point collection
// into k-means cells. A query probes the nprobe nearest centroids and scans
// only their member lists; the members are then re-ranked exactly by the
// caller through the candidate-restricted scoring lane, so pruning affects
// only which images are *considered*, never the score or order of the images
// that survive it.
//
// Everything here is deterministic: seeding uses the repo's xorshift64*
// generator with a fixed seed, Lloyd iterations run a fixed count with a
// fixed accumulation order (ascending global index), and every tie — in
// assignment and in probing — breaks toward the lower centroid id. Building
// the same index over the same points therefore always produces the same
// cells and the same probe order, which keeps pruned rankings reproducible
// across runs and worker counts.

// CentroidConfig configures BuildCentroidIndex.
type CentroidConfig struct {
	// Clusters is the number of k-means cells. Non-positive selects
	// round(sqrt(n)) — the classical IVF balance point where probing t
	// cells scans about t*sqrt(n) points — clamped to [1, n].
	Clusters int
}

// kmeansIters is the Lloyd iteration count of every build: enough for cells
// over the smooth descriptor distributions of this system to settle, small
// enough that a background rebuild stays cheap relative to the scans it will
// save. The count is fixed (no convergence test) so the build is
// deterministic in cost as well as in result.
const kmeansIters = 10

// centroidSeed seeds centroid initialization: equal collections give
// bit-identical indexes and therefore bit-identical pruned rankings.
const centroidSeed = 0x51f15eed2048c1d

// CentroidIndex is an immutable IVF-style cluster index over the first Len()
// points of a collection. It is safe for concurrent readers. The index never
// stores point data — member lists hold global indices into the collection it
// was built over, which stays the single source of truth for re-ranking.
type CentroidIndex struct {
	n, dim    int
	centroids *linalg.Matrix // k x dim cell centers
	members   [][]int32      // ascending global indices; a partition of [0,n)
}

// BuildCentroidIndex runs deterministic k-means over the points of set and
// returns the resulting cell index. ctx is checked between chunks of the
// assignment pass so a shutdown can stop a background rebuild promptly; a
// cancelled build returns ctx's error and no index.
func BuildCentroidIndex(ctx context.Context, set *ShardedSet, cfg CentroidConfig) (*CentroidIndex, error) {
	n := set.Len()
	if n == 0 {
		return nil, errors.New("kernel: BuildCentroidIndex over an empty set")
	}
	k := cfg.Clusters
	if k <= 0 {
		k = int(math.Round(math.Sqrt(float64(n))))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dim := set.Dim()

	// Seed cells from k distinct points chosen by the deterministic
	// generator, so the initial centroids are actual data points.
	rng := linalg.NewRNG(centroidSeed)
	perm := rng.Perm(n)
	centroids := linalg.NewMatrix(k, dim)
	for c := 0; c < k; c++ {
		copy(centroids.Row(c), set.Point(perm[c]))
	}

	assign := make([]int32, n)
	counts := make([]int, k)
	for it := 0; it < kmeansIters; it++ {
		// Assignment pass: nearest centroid, ties to the lower cell id.
		for i := 0; i < n; i++ {
			if i%4096 == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			x := linalg.Vector(set.Point(i))
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := x.SquaredDistance(centroids.Row(c)); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = int32(best)
		}
		// Update pass: means accumulate in ascending global index order, so
		// the arithmetic — and therefore the final cells — is reproducible.
		for i := range centroids.Data {
			centroids.Data[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			row := centroids.Row(int(assign[i]))
			for j, v := range set.Point(i) {
				row[j] += v
			}
			counts[int(assign[i])]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// An emptied cell keeps no mass to average; reseed it from a
				// deterministic fresh draw so it can capture points again.
				copy(centroids.Row(c), set.Point(rng.Intn(n)))
				continue
			}
			inv := 1 / float64(counts[c])
			row := centroids.Row(c)
			for j := range row {
				row[j] *= inv
			}
		}
	}

	// Final assignment into member lists (the loop above ends on an update,
	// so reassign once against the final centroids).
	members := make([][]int32, k)
	for i := 0; i < n; i++ {
		if i%4096 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		x := linalg.Vector(set.Point(i))
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if d := x.SquaredDistance(centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		members[best] = append(members[best], int32(i))
	}
	return &CentroidIndex{n: n, dim: dim, centroids: centroids, members: members}, nil
}

// Len returns the number of collection points the index covers (the prefix
// [0, Len()) of the collection it was built over; points appended after the
// build are outside the index and must be scanned exhaustively).
func (ix *CentroidIndex) Len() int { return ix.n }

// NumClusters returns the number of cells.
func (ix *CentroidIndex) NumClusters() int { return len(ix.members) }

// Members returns the ascending global indices of cell c's points. Callers
// must not mutate the returned slice. Cells partition [0, Len()): every
// indexed point belongs to exactly one cell, so candidate lists drawn from
// distinct cells are disjoint.
func (ix *CentroidIndex) Members(c int) []int32 { return ix.members[c] }

// Probe returns the ids of the nprobe cells whose centroids are nearest to
// q (squared Euclidean distance, ties to the lower cell id), nearest first.
// nprobe is clamped to [1, NumClusters]. The union of the returned cells'
// Members is the candidate set of the pruned query path.
func (ix *CentroidIndex) Probe(q linalg.Vector, nprobe int) []int {
	return ix.ProbeInto(nil, q, nprobe)
}

// ProbeInto is Probe appending into dst (reused when it has capacity).
func (ix *CentroidIndex) ProbeInto(dst []int, q linalg.Vector, nprobe int) []int {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("kernel: Probe query of dimension %d against index of dimension %d", len(q), ix.dim))
	}
	k := len(ix.members)
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > k {
		nprobe = k
	}
	dst = dst[:0]
	dists := make([]float64, k)
	for c := 0; c < k; c++ {
		dists[c] = q.SquaredDistance(ix.centroids.Row(c))
		dst = append(dst, c)
	}
	sort.SliceStable(dst, func(a, b int) bool {
		da, db := dists[dst[a]], dists[dst[b]]
		if da != db {
			return da < db
		}
		return dst[a] < dst[b]
	})
	return dst[:nprobe]
}
