package eval

import (
	"context"
	"fmt"
	"testing"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

func TestRecallAtK(t *testing.T) {
	oracle := []int{4, 9, 1, 7, 3}
	cases := []struct {
		name   string
		approx []int
		k      int
		want   float64
	}{
		{"identical", []int{4, 9, 1, 7, 3}, 5, 1},
		{"reordered", []int{3, 7, 1, 9, 4}, 5, 1},
		{"partial overlap", []int{4, 9, 8, 6, 5}, 5, 0.4},
		{"disjoint", []int{10, 11, 12}, 3, 0},
		{"short approx", []int{4}, 5, 0.2},
		{"k beyond oracle", []int{4, 9, 1, 7, 3}, 50, 1},
		{"k zero", nil, 0, 1},
	}
	for _, c := range cases {
		if got := RecallAtK(oracle, c.approx, c.k); got != c.want {
			t.Errorf("%s: RecallAtK = %v, want %v", c.name, got, c.want)
		}
	}
}

// clusteredCollection draws a collection of well-separated clusters, the
// regime IVF pruning is built for.
func clusteredCollection(n, dim, centers int, seed uint64) []linalg.Vector {
	rng := linalg.NewRNG(seed)
	out := make([]linalg.Vector, n)
	for i := range out {
		c := i % centers
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.Normal(0, 0.5)
		}
		v[c%dim] += float64(8 * (1 + c/dim))
		out[i] = v
	}
	return out
}

// TestANNRecallMatrix is the recall@K harness of the pruned query path: for
// every shard count x worker count combination it ranks through the centroid
// index and compares against the exhaustive oracle. Two properties are
// pinned: the pruned ranking is bit-identical across every combination
// (sharding and parallelism are pure execution detail), and recall@20 on
// clustered data stays high — at a narrow probe width over a hand-sized
// index, and at the configuration the server runs when given none
// (CentroidConfig{} picks about sqrt(n) cells; a quarter of them are probed,
// the width retrieval.Engine resolves to).
func TestANNRecallMatrix(t *testing.T) {
	const dim, k = 6, 20
	for _, c := range []struct {
		name       string
		n, centers int
		cfg        kernel.CentroidConfig
		nprobe     int // 0 = a quarter of the cells, at least one
		probes     []int
	}{
		{"narrow", 336, 8, kernel.CentroidConfig{Clusters: 8}, 2, []int{3, 117, 250}},
		{"default", 2400, 24, kernel.CentroidConfig{}, 0, []int{3, 117, 250, 901, 1534, 2399}},
	} {
		n, visual := c.n, clusteredCollection(c.n, dim, c.centers, 99)
		idx, err := kernel.BuildCentroidIndex(context.Background(), kernel.NewShardedSet(visual, 0), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		nprobe := c.nprobe
		if nprobe == 0 {
			nprobe = max(1, idx.NumClusters()/4)
		}

		for _, probe := range c.probes {
			// The exhaustive oracle: serial, default sharding.
			oracleCtx := &core.QueryContext{Visual: visual, Query: probe, Workers: 1, Batch: core.NewCollectionBatch(visual)}
			exact, err := core.Euclidean{}.RankTop(oracleCtx, k)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make([]int, len(exact))
			for i, r := range exact {
				oracle[i] = r.Index
			}

			cells := idx.Probe(visual[probe], nprobe)
			lists := make([][]int32, len(cells))
			for i, c := range cells {
				lists[i] = idx.Members(c)
			}
			cands := core.CandidateSet{Lists: lists, TailStart: n}

			var reference []core.Ranked
			for _, shards := range []int{1, 2, 7} {
				batch := core.NewShardedCollectionBatch(visual, (n+shards-1)/shards)
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s (%d cells, nprobe %d): probe=%d shards=%d workers=%d",
						c.name, idx.NumClusters(), nprobe, probe, shards, workers)
					ctx := &core.QueryContext{Visual: visual, Query: probe, Workers: workers, Batch: batch}
					ranked, err := core.Euclidean{}.RankTopCandidates(ctx, cands, k, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if reference == nil {
						reference = append([]core.Ranked(nil), ranked...)
					}
					if len(ranked) != len(reference) {
						t.Fatalf("%s: %d results, reference has %d", name, len(ranked), len(reference))
					}
					for i := range ranked {
						if ranked[i] != reference[i] {
							t.Fatalf("%s: result %d = %+v differs from reference %+v — pruned ranking depends on execution layout",
								name, i, ranked[i], reference[i])
						}
					}
					approx := make([]int, len(ranked))
					for i, r := range ranked {
						approx[i] = r.Index
					}
					if recall := RecallAtK(oracle, approx, k); recall < 0.95 {
						t.Errorf("%s: recall@%d = %.3f, want >= 0.95 on clustered data", name, k, recall)
					}
				}
			}
		}
	}
}
