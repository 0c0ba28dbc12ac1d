package core

import (
	"fmt"
	"math"
	"math/bits"
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
// Every pass is one computation, candidate source → range scorer → sink,
// run by one driver (scanRanges): the source is every shard or a pruned
// candidate set (candidates.go), the scorer is the scheme's, and the sink
// keeps the top K, the unlabeled points of LRF-CSVM's step 1 — both bounded
// selectors — or every score (Scheme.Rank: the boundary and random
// heuristics of step 1 rank every unlabeled image).
// Whatever a range needs beside the stores — score lanes, the query's
// distances, the log column a row is scored on — lives in the scanning
// worker's pooled arena, sized to one shard and computed in the range it is
// used in: nothing derived from the collection is kept per query, so no pass
// but the one that returns every score allocates with the size of the
// collection. The one thing kept per log version, the log indexed by session
// and by image, comes with the context (QueryContext.LogIndex); a context
// without it has one built per Rank call.

// CollectionBatch holds what every query against the same collection shares:
// the sharded flat visual store with per-shard row norms — the one copy of
// the descriptors, read by the scans, the SVMs' labeled points and the query
// vector alike — the mean-distance estimate of the default visual kernel, and
// a pool of scoring arenas (see rankScratch); nothing that depends on the
// query or on the log. Build one per indexed collection (the retrieval engine
// and eval experiments do) and attach it to each QueryContext; schemes fall
// back to a transient one per Rank call when the context carries none. All
// methods are safe for concurrent use.
type CollectionBatch struct {
	set *kernel.ShardedSet

	vkOnce sync.Once
	vk     kernel.Kernel

	qsOnce sync.Once
	qs     *kernel.QuantizedSet

	// scratch pools scoring arenas (see rankScratch); steady-state queries
	// reuse them instead of allocating shard-sized buffers. An arena is sized
	// to a shard, not to the collection, so a batch shares the pool of the
	// batch it was appended to: an ingestion neither allocates arenas anew
	// nor leaves the old epoch's in a pool only a garbage collection empties.
	// leased counts this batch's arenas out on loan: zero after any pass,
	// cancelled or not.
	scratch *sync.Pool
	leased  atomic.Int64
}

// NewCollectionBatch indexes the collection's visual descriptors into
// sharded flat storage with the default shard size. The descriptors are
// copied and the input is not kept.
func NewCollectionBatch(visual []linalg.Vector) *CollectionBatch {
	return NewShardedCollectionBatch(visual, 0)
}

// NewShardedCollectionBatch indexes the collection with an explicit shard
// size (<= 0 selects kernel.DefaultShardSize). Scores and rankings are
// bit-identical for every shard size; the knob trades per-worker cache
// residency against scheduling granularity.
func NewShardedCollectionBatch(visual []linalg.Vector, shardSize int) *CollectionBatch {
	return NewCollectionBatchOver(kernel.NewShardedSet(visual, shardSize))
}

// NewCollectionBatchOver takes the sharded store over as the batch's store,
// without a copy: a collection decoded straight into a kernel.SetBuilder is
// then stored once. The set must not be grown by anyone but the batch.
func NewCollectionBatchOver(set *kernel.ShardedSet) *CollectionBatch {
	return &CollectionBatch{set: set, scratch: new(sync.Pool)}
}

// Len returns the number of images in the collection.
func (b *CollectionBatch) Len() int { return b.set.Len() }

// Append returns a CollectionBatch holding the receiver's collection followed
// by the added descriptors (copied). The sharded store grows copy-on-write
// through kernel.ShardedSet.Grow — full shards are shared and only the tail
// shard is rebuilt — so row norms are computed only for the appended
// descriptors and in-flight queries against the receiver are never disturbed.
// The default-kernel bandwidth is re-estimated lazily over the full grown
// collection — the evenly spaced subsample of the estimator is deterministic,
// so the grown batch's kernel is identical to a from-scratch batch over the
// same collection. The grown batch shares the receiver's scoring arenas.
func (b *CollectionBatch) Append(added []linalg.Vector) *CollectionBatch {
	return &CollectionBatch{set: b.set.Grow(added), scratch: b.scratch}
}

// Grow is Append for a caller that keeps the whole collection as a slice:
// what follows the receiver's collection in visual is appended. Only bench/
// grows its batches this way; the form ends once bench/ calls Append.
func (b *CollectionBatch) Grow(visual []linalg.Vector) *CollectionBatch {
	if !b.startsWith(visual) {
		panic(fmt.Sprintf("core: Grow of a %d-image collection with %d images that do not start with it", b.Len(), len(visual)))
	}
	return b.Append(visual[b.Len():])
}

// startsWith reports whether visual starts with the batch's collection: at
// least as long, with the stored first and last row at their indices. The
// store keeps no reference to what it was built from, so the guard is content
// — which, unlike slice identity, also holds for an equal copy.
func (b *CollectionBatch) startsWith(visual []linalg.Vector) bool {
	n := b.Len()
	if len(visual) < n {
		return false
	}
	return n == 0 || slices.Equal(b.set.Point(0), kernel.Dense(visual[0])) &&
		slices.Equal(b.set.Point(n-1), kernel.Dense(visual[n-1]))
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
		b.qs = kernel.NewQuantizedSet(b.set.Rows())
	})
	return b.qs
}

// defaultVisualKernel estimates (once) the default RBF kernel over the
// collection's visual descriptors. The estimate depends only on the
// collection, never on the query, so caching it across queries changes no
// score.
func (b *CollectionBatch) defaultVisualKernel() kernel.Kernel {
	b.vkOnce.Do(func() {
		point := func(i int) kernel.Point { return b.set.Point(i) }
		b.vk = kernel.RBF{Gamma: visualGammaScale * kernel.EstimateRBFGamma(b.set.Len(), point, gammaSample)}
	})
	return b.vk
}

// queryVector returns the query image's descriptor, a view into the store.
func (b *CollectionBatch) queryVector(ctx *QueryContext) linalg.Vector {
	return linalg.Vector(b.set.Point(ctx.Query))
}

// visualPoints returns the visual descriptors of the given image indices as
// kernel points, views into the store.
func (b *CollectionBatch) visualPoints(indices []int) []kernel.Point {
	out := make([]kernel.Point, len(indices))
	for i, idx := range indices {
		out[i] = b.set.Point(idx)
	}
	return out
}

// rankScratch is one pooled scoring arena, everything a worker needs beside
// the stores to score ranges of at most one shard: score lanes, a log column
// header, the RBF tile's working memory and the streaming passes' selectors.
// Arenas live in the collection batch's pool; a steady-state pass borrows
// one per worker, scores through it and returns it without allocating.
type rankScratch struct {
	lanes [3][]float64
	// col is the log column a non-linear log model scores, a view into the
	// index; held here, the point that names it does not escape per row.
	col   sparse.Vector
	tiles kernel.TileScratch
	sel   topKSelector
	pick  unlabeledSelector
	// view is a reusable DenseSet header, so slicing a range out of a shard
	// allocates nothing.
	view *kernel.DenseSet
	// floor is a top-K pass's floor (float64 bits) in its result arena; cut
	// is the range a top-K worker scores: its bound, floor and rows handed back.
	floor atomic.Uint64
	cut   struct {
		bound    kernel.Bound
		floor    *atomic.Uint64
		lo, next int
	}
}

// The lanes of an arena. The sink owns the first; a range scorer may use the
// other two for the duration of one call.
const (
	laneScores = iota // the range's scores, for the sinks that select from them
	lanePrior         // the query's distances, then its prior
	laneLog           // log-modality decision values
)

// lane returns scratch lane i with length n, growing its backing array only
// when a longer range is seen, and then to at least twice its length: the
// pool outlives an ingestion, whose tail shard is a few rows longer.
func (s *rankScratch) lane(i, n int) []float64 {
	if cap(s.lanes[i]) < n {
		s.lanes[i] = make([]float64, max(n, 2*cap(s.lanes[i])))
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
	s.cut.bound = nil
	b.scratch.Put(s)
}

// collectionBatch returns the context's collection: the attached batch, or a
// transient one indexed from Visual.
func (ctx *QueryContext) collectionBatch() *CollectionBatch {
	if ctx.Batch != nil {
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

// rangeScorer scores one in-shard range — a DenseSet view plus the global
// index of its first row — into dst with the arithmetic of the scalar path,
// taking its temporaries from the scanning worker's arena sc. It is the one
// thing a scheme contributes to a pass (see rangeScored).
type rangeScorer func(sc *rankScratch, sub *kernel.DenseSet, lo int, dst []float64)

// rangeSink is what a pass keeps of its scores. dst names where the scores
// of rows [lo, lo+n) are written — a lane of the arena, or their final place
// — and consume is offered them once scored. A pass on several workers gives
// each its own arena: like prepares it as the result arena proto is, merge
// folds what it kept into the result.
type rangeSink interface {
	like(sc, proto *rankScratch)
	dst(sc *rankScratch, lo, n int) []float64
	consume(sc *rankScratch, lo int, scores []float64)
	merge(into, from *rankScratch)
}

// scanRanges is the scoring driver, the only code that walks the collection.
// The work units of cands (the zero CandidateSet is every shard; see
// scanPass) are claimed from one queue by up to ctx.workers() goroutines —
// by the caller alone, through the result arena and without allocating, when
// that is one. Each range of a unit is scored by fn through the arena's
// storage view and kept by sink, and the workers' arenas merge into result,
// whose selectors the caller prepares and drains. Every row is scored once,
// with the arithmetic of the scalar path on the same memory, and the sinks'
// orders are strict, so what a pass keeps is bit-identical for any shard
// size, worker count and grouping of the candidates.
//
// ctx.Ctx is checked before each unit: once it is cancelled no worker starts
// another, so a disconnected client or an expired deadline frees the scoring
// workers within one unit, and the pass returns the context's error; what it
// kept is then partial and to be discarded. A nil context is never cancelled.
func scanRanges(ctx *QueryContext, b *CollectionBatch, cands CandidateSet, fn rangeScorer, sink rangeSink, result *rankScratch) error {
	p := newScanPass(ctx, b.VisualSet(), cands, fn, sink)
	if p.workers <= 1 {
		return p.drain(new(atomic.Int64), result)
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed error
	)
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		// Each worker walks its own copy of the pass, so the serial path
		// above keeps p on the stack.
		go func(p scanPass) {
			defer wg.Done()
			sc := b.scratchGet()
			defer b.scratchPut(sc)
			sink.like(sc, result)
			err := p.drain(&next, sc)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed = err
				return
			}
			sink.merge(result, sc)
		}(p)
	}
	wg.Wait()
	return failed
}

// drain claims units from the pass's queue and scores them through sc until
// none is left or the context is cancelled.
func (p *scanPass) drain(next *atomic.Int64, sc *rankScratch) error {
	for {
		t := int(next.Add(1)) - 1
		if t >= p.units {
			return nil
		}
		if err := ctxErr(p.stdctx); err != nil {
			return err
		}
		p.unit(sc, t)
	}
}

// score scores the in-shard range [lo, hi) into wherever the sink keeps it.
func (p *scanPass) score(sc *rankScratch, lo, hi int) {
	si := lo / p.set.ShardSize()
	base := p.set.ShardStart(si)
	if sc.view == nil {
		sc.view = kernel.NewSetView()
	}
	sub := p.set.Shard(si).SliceInto(sc.view, lo-base, hi-base)
	scores := p.sink.dst(sc, lo, hi-lo)
	p.fn(sc, sub, lo, scores)
	p.sink.consume(sc, lo, scores)
}

// topKSink keeps the best k scores in the arenas' bounded selectors, and
// bounds the RBF tile by their floor (kernel.Bound): the largest k-th best
// score a worker of the pass keeps, raised after every tile. A skipped row
// ranks below k kept rows, so the pass keeps what it keeps without a floor.
type topKSink struct{ floor *atomic.Uint64 }

func (topKSink) like(sc, proto *rankScratch) { sc.sel.reset(proto.sel.k) }

func (s topKSink) dst(sc *rankScratch, lo, n int) []float64 {
	sc.cut.bound, sc.cut.floor, sc.cut.lo, sc.cut.next = sc, s.floor, lo, 0
	return sc.lane(laneScores, n)
}

// consume offers, a tile at a time, the rows the driver has not handed back.
func (topKSink) consume(sc *rankScratch, _ int, scores []float64) {
	for i := sc.cut.next; i < len(scores); i += 64 {
		n := min(64, len(scores)-i)
		sc.Scored(i, n, ^uint64(0)>>(64-n))
	}
	sc.cut.bound = nil
}

func (topKSink) merge(into, from *rankScratch) { into.sel.merge(&from.sel) }

// Floor implements kernel.Bound: the pass's floor.
func (sc *rankScratch) Floor() float64 { return math.Float64frombits(sc.cut.floor.Load()) }

// Scored implements kernel.Bound: it offers the tile's scored rows.
func (sc *rankScratch) Scored(lo, n int, kept uint64) {
	for ; kept != 0; kept &= kept - 1 {
		i := lo + bits.TrailingZeros64(kept)
		if v := sc.lanes[laneScores][i]; sc.sel.admits(sc.cut.lo+i, v) {
			sc.sel.push(sc.cut.lo+i, v)
		}
	}
	sc.cut.next = lo + n
	sc.publish()
}

// publish raises the pass's floor to the arena's k-th best score by atomic max.
func (sc *rankScratch) publish() {
	for len(sc.sel.h) == sc.sel.k {
		old, v := sc.cut.floor.Load(), sc.sel.h[0].Score
		if !(v > math.Float64frombits(old)) || sc.cut.floor.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// rankTopRanges streams the images cands names through fn into their top k
// under the (score, index) order, appended to dst (reusing its capacity — a
// caller recycling its result buffer allocates nothing here). No
// collection-sized slice is materialized.
func rankTopRanges(ctx *QueryContext, b *CollectionBatch, cands CandidateSet, k int, dst []Ranked, fn rangeScorer) ([]Ranked, error) {
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
	sc.floor.Store(math.Float64bits(math.Inf(-1)))
	if err := scanRanges(ctx, b, cands, fn, topKSink{floor: &sc.floor}, sc); err != nil {
		return nil, err
	}
	return sc.sel.drain(dst), nil
}

// unlabeledSink keeps the unlabeled points of LRF-CSVM's step 1 in the
// arenas' step-1 selectors. labeled lists the judged images, ascending and
// distinct.
type unlabeledSink struct {
	labeled []int
	log     *kernel.LogIndex
}

func (unlabeledSink) like(sc, proto *rankScratch) { sc.pick.reset(proto.pick.num) }

func (unlabeledSink) dst(sc *rankScratch, _, n int) []float64 { return sc.lane(laneScores, n) }

func (k unlabeledSink) consume(sc *rankScratch, lo int, scores []float64) {
	sc.pick.consume(lo, scores, k.labeled, k.log)
}

func (unlabeledSink) merge(into, from *rankScratch) { into.pick.merge(&from.pick) }

// selectUnlabeledRanges is the streaming selection of LRF-CSVM's step 1: the
// combined scores fn streams feed the log-assisted heuristic's bounded
// selectors (see unlabeledSelector), positives first from the images covered
// marks, so drafting the N' = num unlabeled points (fewer when fewer exist)
// materializes no collection-sized slice and runs on every worker.
func selectUnlabeledRanges(ctx *QueryContext, b *CollectionBatch, num int, covered *kernel.LogIndex, fn rangeScorer) (indices []int, initialLabels []float64, err error) {
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
	if err := scanRanges(ctx, b, CandidateSet{}, fn, unlabeledSink{labeled: labeled, log: covered}, sc); err != nil {
		return nil, nil, err
	}
	indices, initialLabels = sc.pick.drain()
	return indices, initialLabels, nil
}

// scoreSink keeps every score: each range is scored straight into its place
// in the collection-sized slice.
type scoreSink []float64

func (scoreSink) like(sc, proto *rankScratch) {}

func (s scoreSink) dst(_ *rankScratch, lo, n int) []float64 { return s[lo : lo+n] }

func (scoreSink) consume(*rankScratch, int, []float64) {}

func (scoreSink) merge(into, from *rankScratch) {}

// scanScores materializes the score of every image under fn: Scheme.Rank,
// what step 1's boundary and random heuristics and the test references read.
func scanScores(ctx *QueryContext, b *CollectionBatch, fn rangeScorer) ([]float64, error) {
	scores := make([]float64, b.VisualSet().Len())
	sc := b.scratchGet()
	defer b.scratchPut(sc)
	if err := scanRanges(ctx, b, CandidateSet{}, fn, scoreSink(scores), sc); err != nil {
		return nil, err
	}
	return scores, nil
}

// coupledScorer scores by the summed decision value of a visual and a log
// model — CSVM_Dist of Fig. 1, and the combined score of LRF-2SVMs — minus the
// query prior around the descriptor q, computed first so a top-K pass can
// bound the visual pass by them. Step 1 selects by the decisions alone (nil q).
func coupledScorer(ctx *QueryContext, visualModel, logModel *svm.Model, q linalg.Vector) rangeScorer {
	log := ctx.LogIndex
	return func(sc *rankScratch, sub *kernel.DenseSet, lo int, dst []float64) {
		var prior []float64
		if q != nil {
			prior = queryPrior(sc, q, sub)
		}
		visualModel.DecisionBounded(sub, dst, logDecisions(sc, logModel, log, lo, sub.Len()), prior, &sc.tiles, sc.cut.bound)
	}
}

// logDecisions returns the log model's decision values of the rows [lo, lo+n)
// in the arena's log lane. A linear model walks its weight vector through the
// collection's log inverted by session (kernel.LinearAccumulateWeights): each
// row starts from the bias and adds w_s·y_s for its sessions of w, ascending.
// Another kernel scores row by row with svm.Model.Decision over the row's log
// column, read into the arena's column header.
func logDecisions(sc *rankScratch, m *svm.Model, log *kernel.LogIndex, lo, n int) []float64 {
	dst := sc.lane(laneLog, n)
	if w, linear := m.LinearWeights(); linear {
		for i := range dst {
			dst[i] = m.Bias
		}
		kernel.LinearAccumulateWeights(w, log.Sessions(), lo, dst)
		return dst
	}
	for i := range dst {
		sc.col = log.Column(lo + i)
		dst[i] = m.Decision(kernel.NewSparse(&sc.col))
	}
	return dst
}

// retrievalScorer is coupledScorer with the query prior: the retrieval pass
// of the two-modality schemes (step 3 of Fig. 1).
func retrievalScorer(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model) rangeScorer {
	return coupledScorer(ctx, visualModel, logModel, b.queryVector(ctx))
}

// visualScorer scores by the decision value of a visual-modality model minus
// the query prior: RF-SVM's retrieval pass.
func visualScorer(ctx *QueryContext, b *CollectionBatch, model *svm.Model) rangeScorer {
	q := b.queryVector(ctx)
	return func(sc *rankScratch, sub *kernel.DenseSet, _ int, dst []float64) {
		model.DecisionBounded(sub, dst, nil, queryPrior(sc, q, sub), &sc.tiles, sc.cut.bound)
	}
}

// queryPrior returns, in the arena's prior lane, the initial-similarity prior
// of the rows of a range that an SVM scheme's score subtracts, q being the
// query's descriptor; see queryPriorWeight for the rationale.
func queryPrior(sc *rankScratch, q linalg.Vector, sub *kernel.DenseSet) []float64 {
	prior := sc.lane(lanePrior, sub.Len())
	rangeDistances(q, sub, prior)
	for i, d := range prior {
		prior[i] = float64(queryPriorWeight * d)
	}
	return prior
}

// rangeDistances writes the Euclidean distance from q to every row of a range
// into dst: what the Euclidean scheme negates into its score and the query
// prior weighs. Distances use the norm-expansion batch path (one matrix-vector
// product per range against the precomputed row norms, on the kernel
// backend's row dot); EXPERIMENTS.md documents the O(1e-15) per-score drift
// and the unchanged MAP metrics.
func rangeDistances(q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sub.SquaredDistancesInto(dst, q)
	for i := range dst {
		dst[i] = math.Sqrt(dst[i])
	}
}
