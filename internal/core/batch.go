package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// This file is the sharded, data-parallel scoring path shared by every
// retrieval scheme: the collection is partitioned into fixed-size shards
// (kernel.ShardedSet), models are evaluated shard-wise through the batch
// kernel path, and the per-image work is distributed over Workers goroutines
// pulling shard ranges from a queue. Each score element is written by
// exactly one worker with the same arithmetic as the scalar path, so
// rankings are bit-for-bit independent of the worker count and of the shard
// size.
//
// Two consumption modes exist: the full-scores mode materializes one score
// per image (the evaluation harness needs every score), and the streaming
// mode (streamRanges) pushes each shard's scores through bounded selectors
// backed by a pooled per-query scratch arena — a retrieval pass's top-K or
// the unlabeled points of LRF-CSVM's step 1 — so the steady-state query path
// allocates nothing proportional to the collection size.

// DefaultShardSize re-exports the collection shard capacity selected when a
// batch is built without an explicit shard size.
const DefaultShardSize = kernel.DefaultShardSize

// CollectionBatch caches collection-level precomputation shared by every
// query against the same collection: the sharded flat visual store with
// per-shard row norms, the log vectors wrapped as kernel points, the
// mean-distance estimate of the default visual kernel, and a pool of
// per-query scratch arenas (score lanes and top-K selectors sized to one
// shard). Build one per indexed collection (the retrieval engine and eval
// experiments do) and attach it to each QueryContext; schemes fall back to a
// transient one per Rank call when the context carries none. All methods are
// safe for concurrent use.
type CollectionBatch struct {
	src []linalg.Vector // the collection the batch was built from
	set *kernel.ShardedSet

	vkOnce sync.Once
	vk     kernel.Kernel

	qsOnce sync.Once
	qs     *kernel.QuantizedSet

	logMu  sync.Mutex
	logSrc []*sparse.Vector
	logPts []kernel.Point

	// distMu guards a one-entry cache of the query-to-collection distance
	// row. Interactive sessions re-rank the same query across feedback
	// rounds (and the prior is added to every SVM ranking), so the last
	// query's distances are the ones asked for again.
	distMu    sync.Mutex
	distQuery int
	dist      []float64

	// scratch pools per-query scoring arenas (see rankScratch); steady-state
	// queries reuse them instead of allocating shard-sized buffers. leased
	// counts the arenas out on loan: zero after any pass, cancelled or not.
	scratch sync.Pool
	leased  atomic.Int64
}

// NewCollectionBatch indexes the collection's visual descriptors into
// sharded flat storage with the default shard size. The descriptors are
// copied; later mutation of the input does not reach the batch.
func NewCollectionBatch(visual []linalg.Vector) *CollectionBatch {
	return NewShardedCollectionBatch(visual, 0)
}

// NewShardedCollectionBatch indexes the collection with an explicit shard
// size (<= 0 selects kernel.DefaultShardSize). Scores and rankings are
// bit-identical for every shard size; the knob trades per-worker cache
// residency against scheduling granularity.
func NewShardedCollectionBatch(visual []linalg.Vector, shardSize int) *CollectionBatch {
	return &CollectionBatch{src: visual, set: kernel.NewShardedSet(visual, shardSize)}
}

// Grow returns a CollectionBatch extended to cover visual: the receiver's
// source collection plus descriptors appended after it (the prefix must be
// the same collection; only the length grows). The sharded store grows
// copy-on-write through kernel.ShardedSet.Grow — full shards are shared and
// only the tail shard is rebuilt — so row norms are computed only for the
// appended descriptors and in-flight queries against the receiver are never
// disturbed. The default-kernel bandwidth is re-estimated lazily over the
// full grown collection — the evenly spaced subsample of the estimator is
// deterministic, so the grown batch's kernel is identical to a from-scratch
// batch over the same collection. The query-distance and log-point caches
// start empty: their shapes track the collection size.
func (b *CollectionBatch) Grow(visual []linalg.Vector) *CollectionBatch {
	if len(visual) < len(b.src) {
		panic(fmt.Sprintf("core: Grow shrinks the collection from %d to %d images", len(b.src), len(visual)))
	}
	if len(b.src) > 0 && &visual[0][0] != &b.src[0][0] {
		panic("core: Grow with a different collection prefix")
	}
	return &CollectionBatch{src: visual, set: b.set.Grow(visual[len(b.src):])}
}

// matches reports whether the batch was built from exactly this collection
// slice. Length alone is not enough — a batch built over a different
// same-size collection would silently score against stale descriptors — so
// the identity of the source slice is compared too.
func (b *CollectionBatch) matches(visual []linalg.Vector) bool {
	if len(b.src) != len(visual) {
		return false
	}
	return len(visual) == 0 || &b.src[0] == &visual[0]
}

// VisualSet returns the sharded flat visual collection store.
func (b *CollectionBatch) VisualSet() *kernel.ShardedSet { return b.set }

// QuantizedVisualSet returns (building once) the int8 quantized shadow copy
// of the visual collection for the approximate scan lane. The quantization
// depends only on the collection, so the copy is shared by every query on
// the batch; Grow produces a new batch and therefore a fresh quantization
// covering the appended images.
func (b *CollectionBatch) QuantizedVisualSet() *kernel.QuantizedSet {
	b.qsOnce.Do(func() {
		b.qs = kernel.NewQuantizedSet(b.src)
	})
	return b.qs
}

// defaultVisualKernel estimates (once) the default RBF kernel over the
// collection's visual descriptors. The estimate depends only on the
// collection, never on the query, so caching it across queries changes no
// score.
func (b *CollectionBatch) defaultVisualKernel() kernel.Kernel {
	b.vkOnce.Do(func() {
		b.vk = kernel.RBF{Gamma: visualGammaScale * kernel.EstimateRBFGamma(b.set.Points(), gammaSample)}
	})
	return b.vk
}

// logPoints wraps the per-image log vectors as kernel points, memoized per
// log snapshot (the engine rebuilds the vectors when the log grows, which
// invalidates the memo by identity).
func (b *CollectionBatch) logPoints(vs []*sparse.Vector) []kernel.Point {
	if len(vs) == 0 {
		return nil
	}
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.logSrc != nil && len(b.logSrc) == len(vs) && &b.logSrc[0] == &vs[0] {
		return b.logPts
	}
	pts := kernel.SparsePoints(vs)
	b.logSrc = vs
	b.logPts = pts
	return pts
}

// rankScratch is one pooled per-query scoring arena: two shard-sized score
// lanes (decision values, log-modality values or kernel accumulation
// buffers) and the reusable bounded selectors of the streaming passes.
// Arenas live in the collection batch's pool; a steady-state query borrows
// one, scores through it and returns it without allocating.
type rankScratch struct {
	lanes [2][]float64
	sel   topKSelector
	pick  unlabeledSelector
	// view is a reusable DenseSet header for the candidate-restricted lane,
	// so slicing a run of candidates out of a shard allocates nothing.
	view *kernel.DenseSet
}

// lane returns scratch lane i with length n, growing its backing array only
// when a larger shard is seen.
func (s *rankScratch) lane(i, n int) []float64 {
	if cap(s.lanes[i]) < n {
		s.lanes[i] = make([]float64, n)
	}
	return s.lanes[i][:n]
}

// scratchGet borrows a scoring arena from the batch's pool.
func (b *CollectionBatch) scratchGet() *rankScratch {
	b.leased.Add(1)
	if s, ok := b.scratch.Get().(*rankScratch); ok {
		return s
	}
	return &rankScratch{}
}

// scratchPut returns a borrowed arena to the pool.
func (b *CollectionBatch) scratchPut(s *rankScratch) {
	b.leased.Add(-1)
	b.scratch.Put(s)
}

// collectionBatch returns the context's attached CollectionBatch when it
// matches the collection, or builds a transient one.
func (ctx *QueryContext) collectionBatch() *CollectionBatch {
	if ctx.Batch != nil && ctx.Batch.matches(ctx.Visual) {
		return ctx.Batch
	}
	return NewCollectionBatch(ctx.Visual)
}

// workers resolves the context's worker count: <=0 selects GOMAXPROCS.
func (ctx *QueryContext) workers() int {
	if ctx.Workers > 0 {
		return ctx.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachRange partitions the sharded collection into contiguous ranges —
// each confined to a single shard, so every unit of work reads one
// cache-local slab — and runs fn over them on up to workers goroutines
// pulling ranges from a shared queue. fn receives the range as a DenseSet
// view plus the global index of its first row; it must only write state
// owned by its own range. With one worker the shards are visited in order
// on the calling goroutine with no scheduling overhead or allocation.
//
// stdctx is checked between ranges: once it is cancelled, no worker starts
// another range (each finishes at most the range it is inside), so a
// disconnected client or an expired deadline frees the scoring workers
// within one shard range. Callers detect the early exit by checking the
// context after forEachRange returns; partial results must then be
// discarded, never cached. A nil context is never cancelled.
func forEachRange(stdctx context.Context, set *kernel.ShardedSet, workers int, fn func(sub *kernel.DenseSet, lo int)) {
	n := set.Len()
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for si := 0; si < set.NumShards(); si++ {
			if ctxErr(stdctx) != nil {
				return
			}
			fn(set.Shard(si), set.ShardStart(si))
		}
		return
	}
	// Chunk so every worker has work even when the whole collection fits in
	// one shard, without ever splitting a range across shard boundaries.
	chunk := (n + workers - 1) / workers
	if ss := set.ShardSize(); chunk > ss {
		chunk = ss
	}
	tasksPerShard := (set.ShardSize() + chunk - 1) / chunk
	numTasks := tasksPerShard * set.NumShards()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctxErr(stdctx) != nil {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= numTasks {
					return
				}
				shard := set.Shard(t / tasksPerShard)
				lo := (t % tasksPerShard) * chunk
				if lo >= shard.Len() {
					continue // the tail shard is shorter than a full one
				}
				hi := lo + chunk
				if hi > shard.Len() {
					hi = shard.Len()
				}
				fn(shard.Slice(lo, hi), set.ShardStart(t/tasksPerShard)+lo)
			}
		}()
	}
	wg.Wait()
}

// rangeScorer scores one shard range — a DenseSet view plus the global index
// of its first row — into dst with the arithmetic of the scalar path.
type rangeScorer func(sub *kernel.DenseSet, lo int, dst []float64)

// rangeSink is what a streaming pass keeps of its scores: a bounded selector
// of the scratch arenas. like prepares sc's selector as proto's, consume
// offers one scored range, merge folds a range's selection into the result.
type rangeSink interface {
	like(sc, proto *rankScratch)
	consume(sc *rankScratch, lo int, scores []float64)
	merge(into, from *rankScratch)
}

// streamRanges is the streaming selection driver: fn scores each shard range
// into a pooled scratch lane, the range's scores feed the sink's bounded
// selector, and the per-range selections merge into result, whose selector
// the caller prepares and drains. The sinks' total orders are strict, so the
// merged selection is unique — bit-identical to materializing every score
// and fully sorting, for any shard size and worker count. A cancelled pass
// returns the context's error and leaves result partial, to be discarded.
func streamRanges(ctx *QueryContext, b *CollectionBatch, fn rangeScorer, sink rangeSink, result *rankScratch) error {
	set := b.VisualSet()
	stdctx := ctx.Ctx
	workers := ctx.workers()
	if workers <= 1 || set.Len() <= 1 {
		for si := 0; si < set.NumShards(); si++ {
			if err := ctxErr(stdctx); err != nil {
				return err
			}
			shard := set.Shard(si)
			lo := set.ShardStart(si)
			scores := result.lane(0, shard.Len())
			fn(shard, lo, scores)
			sink.consume(result, lo, scores)
		}
		return nil
	}
	var mu sync.Mutex
	forEachRange(stdctx, set, workers, func(sub *kernel.DenseSet, lo int) {
		sc := b.scratchGet()
		scores := sc.lane(0, sub.Len())
		fn(sub, lo, scores)
		sink.like(sc, result)
		sink.consume(sc, lo, scores)
		mu.Lock()
		sink.merge(result, sc)
		mu.Unlock()
		b.scratchPut(sc)
	})
	return ctxErr(stdctx)
}

// topKSink streams into the arenas' bounded top-K selectors.
type topKSink struct{}

func (topKSink) like(sc, proto *rankScratch) { sc.sel.reset(proto.sel.k) }

func (topKSink) consume(sc *rankScratch, lo int, scores []float64) {
	for i, v := range scores {
		sc.sel.push(lo+i, v)
	}
}

func (topKSink) merge(into, from *rankScratch) { into.sel.merge(&from.sel) }

// rankTopRanges streams the collection through fn into the global top-K
// under the (score, index) order, appended to dst (reusing its capacity — a
// caller recycling its result buffer allocates nothing here).
func rankTopRanges(ctx *QueryContext, b *CollectionBatch, k int, dst []Ranked, fn rangeScorer) ([]Ranked, error) {
	if n := b.VisualSet().Len(); k > n {
		k = n
	}
	if k <= 0 {
		if dst == nil {
			dst = []Ranked{}
		}
		return dst, nil
	}
	sc := b.scratchGet()
	defer b.scratchPut(sc)
	sc.sel.reset(k)
	if err := streamRanges(ctx, b, fn, topKSink{}, sc); err != nil {
		return nil, err
	}
	return sc.sel.drain(dst), nil
}

// unlabeledSink streams into the arenas' step-1 selectors. labeled lists the
// judged images, ascending and distinct.
type unlabeledSink struct {
	labeled    []int
	logVectors []*sparse.Vector
}

func (unlabeledSink) like(sc, proto *rankScratch) { sc.pick.reset(proto.pick.num) }

func (k unlabeledSink) consume(sc *rankScratch, lo int, scores []float64) {
	sc.pick.consume(lo, scores, k.labeled, k.logVectors)
}

func (unlabeledSink) merge(into, from *rankScratch) { into.pick.merge(&from.pick) }

// selectUnlabeledRanges is the streaming selection of LRF-CSVM's step 1: the
// combined scores fn streams feed the log-assisted heuristic's bounded
// selectors (see unlabeledSelector), so drafting the N' = num unlabeled
// points (fewer when fewer exist) materializes no collection-sized slice and
// runs on every worker.
func selectUnlabeledRanges(ctx *QueryContext, b *CollectionBatch, num int, fn rangeScorer) (indices []int, initialLabels []float64, err error) {
	labeled, _ := labeledSplit(ctx)
	slices.Sort(labeled)
	labeled = slices.Compact(labeled)
	if unlabeled := b.VisualSet().Len() - len(labeled); num > unlabeled {
		num = unlabeled
	}
	if num <= 0 {
		return nil, nil, ctxErr(ctx.Ctx)
	}
	sc := b.scratchGet()
	defer b.scratchPut(sc)
	sc.pick.reset(num)
	if err := streamRanges(ctx, b, fn, unlabeledSink{labeled: labeled, logVectors: ctx.LogVectors}, sc); err != nil {
		return nil, nil, err
	}
	indices, initialLabels = sc.pick.drain()
	return indices, initialLabels, nil
}

// rankVisual scores every image of the collection under a visual-modality
// model, sharded across the context's workers.
func rankVisual(ctx *QueryContext, b *CollectionBatch, model *svm.Model) ([]float64, error) {
	set := b.VisualSet()
	scores := make([]float64, set.Len())
	forEachRange(ctx.Ctx, set, ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		sc := b.scratchGet()
		model.DecisionSet(sub, scores[lo:lo+sub.Len()], sc.lane(0, sub.Len()))
		b.scratchPut(sc)
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		return nil, err
	}
	return scores, nil
}

// scoreCoupledRange scores one shard range by the summed decision value of a
// visual and a log model, writing into dst with the same arithmetic as the
// scalar path.
func scoreCoupledRange(b *CollectionBatch, visualModel, logModel *svm.Model, logPts []kernel.Point, sub *kernel.DenseSet, lo int, dst []float64) {
	sc := b.scratchGet()
	logScores := sc.lane(0, sub.Len())
	visualModel.DecisionSet(sub, dst, sc.lane(1, sub.Len()))
	logModel.DecisionBatch(logPts[lo:lo+sub.Len()], logScores, sc.lane(1, sub.Len()))
	for i := range dst {
		dst[i] += logScores[i]
	}
	b.scratchPut(sc)
}

// rankCoupled scores every image by the summed decision value of a visual
// and a log model (the combined score of the two-modality schemes), sharded
// across the context's workers.
func rankCoupled(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model) ([]float64, error) {
	set := b.VisualSet()
	logPts := b.logPoints(ctx.LogVectors)
	scores := make([]float64, set.Len())
	forEachRange(ctx.Ctx, set, ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		scoreCoupledRange(b, visualModel, logModel, logPts, sub, lo, scores[lo:lo+sub.Len()])
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		return nil, err
	}
	return scores, nil
}

// rankTopVisual is the streaming counterpart of rankVisual followed by the
// query prior and top-k selection, appending into dst.
func rankTopVisual(ctx *QueryContext, b *CollectionBatch, model *svm.Model, k int, dst []Ranked) ([]Ranked, error) {
	dist, err := queryDistances(ctx, b)
	if err != nil {
		return nil, err
	}
	return rankTopRanges(ctx, b, k, dst, func(sub *kernel.DenseSet, lo int, dst []float64) {
		sc := b.scratchGet()
		model.DecisionSet(sub, dst, sc.lane(1, sub.Len()))
		b.scratchPut(sc)
		for i := range dst {
			dst[i] -= queryPriorWeight * dist[lo+i]
		}
	})
}

// rankTopCoupled is the streaming counterpart of rankCoupled followed by the
// query prior and top-k selection, appending into dst.
func rankTopCoupled(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model, k int, dst []Ranked) ([]Ranked, error) {
	dist, err := queryDistances(ctx, b)
	if err != nil {
		return nil, err
	}
	logPts := b.logPoints(ctx.LogVectors)
	return rankTopRanges(ctx, b, k, dst, func(sub *kernel.DenseSet, lo int, dst []float64) {
		scoreCoupledRange(b, visualModel, logModel, logPts, sub, lo, dst)
		for i := range dst {
			dst[i] -= queryPriorWeight * dist[lo+i]
		}
	})
}

// queryDistances returns the Euclidean distances from the query image to
// every image of the collection, computed through the sharded batch path and
// cached per query (the last query's row is kept — feedback rounds re-rank
// the same query). Callers must not mutate the returned slice. Distances use
// the norm-expansion batch path (one matrix-vector product per shard against
// the precomputed row norms); EXPERIMENTS.md documents the O(1e-15)
// per-score drift and the unchanged MAP metrics.
func queryDistances(ctx *QueryContext, b *CollectionBatch) ([]float64, error) {
	b.distMu.Lock()
	if b.dist != nil && b.distQuery == ctx.Query {
		dst := b.dist
		b.distMu.Unlock()
		return dst, nil
	}
	b.distMu.Unlock()

	set := b.VisualSet()
	q := linalg.Vector(set.Point(ctx.Query))
	dst := make([]float64, set.Len())
	forEachRange(ctx.Ctx, set, ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		out := dst[lo : lo+sub.Len()]
		sub.Matrix().RowSquaredDistancesNormInto(out, q, sub.Norms())
		for i := range out {
			out[i] = math.Sqrt(out[i])
		}
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		// A cancelled scan leaves unscored ranges zero-filled; caching the
		// partial row would corrupt every later query for the same image.
		return nil, err
	}

	b.distMu.Lock()
	b.distQuery = ctx.Query
	b.dist = dst
	b.distMu.Unlock()
	return dst, nil
}

// scoreDistanceRange writes the negative Euclidean distance of one shard
// range into dst — the Euclidean scheme's score, computed without touching
// the full-row cache so streaming queries stay allocation-free.
func scoreDistanceRange(q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sub.Matrix().RowSquaredDistancesNormInto(dst, q, sub.Norms())
	for i := range dst {
		dst[i] = -math.Sqrt(dst[i])
	}
}

// addQueryPriorBatch adds the initial-similarity prior to scores in place
// through the batched, per-query-cached distance row; see queryPriorWeight
// for the rationale.
func addQueryPriorBatch(scores []float64, ctx *QueryContext, b *CollectionBatch) error {
	dist, err := queryDistances(ctx, b)
	if err != nil {
		return err
	}
	for i := range scores {
		scores[i] -= queryPriorWeight * dist[i]
	}
	return nil
}
