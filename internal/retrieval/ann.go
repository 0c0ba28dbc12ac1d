package retrieval

import (
	"math"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// This file is the engine half of the sub-linear query path: an IVF-style
// centroid index (kernel.CentroidIndex) over the collection's visual
// descriptors prunes each initial Euclidean query to the member lists of the
// nprobe nearest cells, which are then re-ranked exactly through the
// candidate-restricted streaming top-K lane. The index is maintained
// incrementally under the engine's epoch model:
//
//   - The index always covers a prefix [0, covered) of the collection.
//     Because the collection is append-only and epochs only grow, an index
//     built at size m stays valid for every later epoch.
//   - Images ingested after a build land in the "unindexed tail"
//     [covered, n), which every pruned query scans exactly — a fresh image
//     can never be missed, no matter how stale the index is.
//   - When the tail outgrows annRebuildTailFraction of the indexed
//     prefix, a background rebuild folds it in and publishes the new index
//     through a forward-only compare-and-swap, exactly like an async refine
//     round: queries never block on a rebuild and never see a half-built
//     index, and a stale rebuild finishing late can never displace a newer
//     index. Rebuilds run under the engine's base context, so Close stops
//     them promptly.
//
// Pruning applies only to initial (Euclidean) queries — the approximate
// stage of the paper's pipeline where collection scale hurts most.
// Relevance-feedback refinement, the golden MAP evaluations and every other
// scheme keep the exhaustive scan, and the exhaustive path remains the
// default (Options.ANN.Enable).

// ANNOptions configures approximate candidate generation for initial
// queries. The zero value disables it: every query scans exhaustively.
type ANNOptions struct {
	// Enable turns on IVF-style candidate pruning for initial queries.
	Enable bool
	// Clusters is the number of k-means cells per index build; <=0 selects
	// round(sqrt(n)) at build time.
	Clusters int
	// NProbe is how many nearest cells each query scans; <=0 selects
	// max(1, clusters/4) against the live index. Larger values trade
	// latency for recall; NProbe >= clusters degrades to an exhaustive
	// scan with exact results.
	NProbe int
	// MinCollection is the collection size below which no index is built
	// and every query scans exhaustively (pruning a collection that fits
	// in a few shards costs more than it saves); <=0 selects
	// DefaultANNMinCollection.
	MinCollection int
}

// DefaultANNMinCollection is ANNOptions.MinCollection's zero value.
const DefaultANNMinCollection = 512

// annRebuildTailFraction triggers a background index rebuild when the
// unindexed tail exceeds this fraction of the indexed prefix.
const annRebuildTailFraction = 0.25

// ANNStats describes the live candidate-generation index for monitoring
// (the server surfaces it in /api/status).
type ANNStats struct {
	// Enabled mirrors Options.ANN.Enable.
	Enabled bool
	// Clusters is the cell count of the live index (0 before the first
	// build).
	Clusters int
	// NProbe is the resolved probe width queries currently use (0 before
	// the first build when unset).
	NProbe int
	// IndexedImages is the size of the indexed prefix; queries prune only
	// within it.
	IndexedImages int
	// TailImages is the size of the unindexed tail, always scanned
	// exactly.
	TailImages int
	// Rebuilds counts index builds published since the engine started
	// (including the initial build).
	Rebuilds int64
}

// annState is one published index generation.
type annState struct {
	idx *kernel.CentroidIndex
}

// annConfig resolves the build configuration for a collection of n images.
func (e *Engine) annConfig(n int) kernel.CentroidConfig {
	clusters := e.opts.ANN.Clusters
	if clusters <= 0 {
		clusters = int(math.Round(math.Sqrt(float64(n))))
	}
	return kernel.CentroidConfig{Clusters: clusters}
}

// resolveNProbe resolves the probe width against a live index.
func (e *Engine) resolveNProbe(idx *kernel.CentroidIndex) int {
	np := e.opts.ANN.NProbe
	if np <= 0 {
		np = idx.NumClusters() / 4
	}
	if np < 1 {
		np = 1
	}
	if np > idx.NumClusters() {
		np = idx.NumClusters()
	}
	return np
}

// annCandidates produces the candidate set for one query against a pinned
// epoch: the probed cells' member lists plus the unindexed tail, or every
// image (the zero CandidateSet) when the query must scan exhaustively —
// pruning disabled, no index yet, or the pinned epoch is older than the
// index (a rebuild raced ahead of this query's epoch load, so its member
// lists could name images the epoch does not have).
func (e *Engine) annCandidates(ep *epoch, query int) core.CandidateSet {
	st := e.ann.Load()
	if !e.opts.ANN.Enable || st == nil || st.idx.Len() > len(ep.visual) {
		return core.CandidateSet{}
	}
	q := linalg.Vector(ep.batch.VisualSet().Point(query))
	cells := st.idx.Probe(q, e.resolveNProbe(st.idx))
	lists := make([][]int32, len(cells))
	for i, c := range cells {
		lists[i] = st.idx.Members(c)
	}
	return core.CandidateSet{Lists: lists, TailStart: st.idx.Len()}
}

// maybeRebuildANN starts a background index (re)build when pruning is
// enabled, the collection is large enough, and the unindexed tail has
// outgrown the rebuild threshold. At most one build runs at a time; the
// finished build re-checks the condition so a tail that grew during the
// build is folded in by a follow-up rather than lingering. Callers may hold
// e.mu (the method only touches atomics).
func (e *Engine) maybeRebuildANN() {
	if !e.opts.ANN.Enable || e.closed.Load() {
		return
	}
	ep := e.cur.Load()
	n := len(ep.visual)
	if n < e.opts.ANN.MinCollection {
		return
	}
	covered := 0
	if st := e.ann.Load(); st != nil {
		covered = st.idx.Len()
	}
	if covered > 0 && float64(n-covered) <= annRebuildTailFraction*float64(covered) {
		return
	}
	if !e.annBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.annBuilding.Store(false)
		e.rebuildANN()
		e.maybeRebuildANN()
	}()
}

// rebuildANN builds an index over the current epoch and publishes it through
// a forward-only CAS: a build can only extend coverage, never shrink it, so
// a slow stale build finishing after a newer one is discarded.
func (e *Engine) rebuildANN() {
	ep := e.cur.Load()
	idx, err := kernel.BuildCentroidIndex(e.baseCtx, ep.batch.VisualSet(), e.annConfig(len(ep.visual)))
	if err != nil {
		return // cancelled at shutdown; the old index (if any) stays live
	}
	for {
		cur := e.ann.Load()
		if cur != nil && cur.idx.Len() >= idx.Len() {
			return
		}
		if e.ann.CompareAndSwap(cur, &annState{idx: idx}) {
			e.annRebuilds.Add(1)
			return
		}
	}
}

// ANNStats reports the live candidate-generation index state.
func (e *Engine) ANNStats() ANNStats {
	stats := ANNStats{Enabled: e.opts.ANN.Enable, NProbe: e.opts.ANN.NProbe}
	if !stats.Enabled {
		return stats
	}
	stats.TailImages = e.NumImages()
	stats.Rebuilds = e.annRebuilds.Load()
	if st := e.ann.Load(); st != nil {
		stats.Clusters = st.idx.NumClusters()
		stats.NProbe = e.resolveNProbe(st.idx)
		stats.IndexedImages = st.idx.Len()
		stats.TailImages -= stats.IndexedImages
		if stats.TailImages < 0 {
			// The stats loads raced an epoch publish; clamp rather than
			// report a negative tail.
			stats.TailImages = 0
		}
	}
	return stats
}
