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
// used in: nothing derived from the collection is kept per query, so no
// pass but the one that returns every score allocates with the size of the
// collection. The one exception is LRF-CSVM's hand-off from step 1 to step 3
// (stepLane): one float64 per image, kept for the length of a refine in the
// training arena the refine borrows from the batch's free list, so a steady
// refine allocates none.
// The one thing kept per log version, the log indexed by session and by
// image, comes with the context (QueryContext.LogIndex); a context without
// it has one built per Rank call.

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
	// trainers, the batch's one free list (freeList), keeps the SVM schemes'
	// training arenas (trainArena), LRF-CSVM's step lanes in them, and is
	// shared the same way. leased counts this batch's arenas out on loan:
	// zero after any pass or refine, cancelled or not.
	scratch  *sync.Pool
	trainers *freeList
	leased   atomic.Int64
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
	return &CollectionBatch{set: set, scratch: new(sync.Pool), trainers: new(freeList)}
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
// same collection. The grown batch shares the receiver's scoring and
// training arenas.
func (b *CollectionBatch) Append(added []linalg.Vector) *CollectionBatch {
	return &CollectionBatch{set: b.set.Grow(added), scratch: b.scratch, trainers: b.trainers}
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
	// block, weights and seeds are a seeded top-K pass's: the seed rows
	// gathered, a linear log model's weights indexed, the rows themselves;
	// sessions, vouched, tally and ranked are where its log-vouched rows are
	// picked (vouchedSeeds).
	block    kernel.DenseSet
	weights  kernel.WeightTable
	seeds    []int
	sessions []int
	vouched  []int
	tally    topKSelector
	ranked   []Ranked
	// units holds the tail units a pass claims first (scanPass.first).
	units []int
	// floor is a top-K pass's floor (float64 bits) in its result arena; cut
	// is the range a top-K worker scores: its bound, floor, the rows the seed
	// block scored and the rows handed back.
	floor atomic.Uint64
	cut   struct {
		bound    kernel.Bound
		floor    *atomic.Uint64
		done     []int
		lo, next int
	}
}

// The lanes of an arena. The sink owns the first; a range scorer may use the
// other two for the duration of one call.
const (
	laneScores = iota // the range's scores, for the sinks that select from them
	lanePrior         // the query prior, which the tile writes (kernel.Prior)
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

// stepLane is LRF-CSVM's hand-off from step 1 to step 3 of Fig. 1, kept in
// the training arena a refine borrows (trainArena.lane). Step 1's visual
// pass records in sums each image's K⁺, the sum of the kernel columns
// of the initial visual model's positive coefficients — the judged-relevant
// support vectors, terms of them — which its tiles compute for every image
// anyway (kernel.PositiveSums). Step 3's bound reads K⁺ in place of the
// columns of the final visual model's support vectors that are those same
// judged images: deferred names them by support-vector index. seeds are step
// 1's best rows by its combined score, judged images included
// (unlabeledSelector), which step 3 scores before its pass to start from a
// floor; first are the rows whose units it scans first: the query and the
// drafted positives.
type stepLane struct {
	sums []float64
	// written reports that step 1's pass ran and recorded sums.
	written  bool
	terms    int
	deferred []int
	seeds    []int
	first    []int
}

// freeList is the batch's free list of training arenas: it keeps as many as
// refines have held at once, up to GOMAXPROCS, so a steady server reuses one
// or two. An LRF-CSVM arena's lane is collection-sized (400 KB at 50,000
// images), and a sync.Pool would keep one per P that a refine ended on, plus
// the copies its victim cache keeps across a collection.
type freeList struct {
	mu   sync.Mutex
	free []*trainArena
}

// get takes an arena off the list, or a new one when it is empty.
func (f *freeList) get() *trainArena {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return new(trainArena)
	}
	a := f.free[n-1]
	f.free = f.free[:n-1]
	return a
}

// put returns an arena to the list, which drops it when full.
func (f *freeList) put(a *trainArena) {
	f.mu.Lock()
	if len(f.free) < runtime.GOMAXPROCS(0) {
		f.free = append(f.free, a)
	}
	f.mu.Unlock()
}

// record sizes the lane's sums to the n images of step 1's pass and returns
// the lane as that pass takes it, recording.
func (l *stepLane) record(n int) kernel.PositiveSums {
	if cap(l.sums) < n {
		// Headroom for the images some ingestions append (1/64: 6 KB of a
		// 400 KB lane at 50,000 images).
		l.sums = make([]float64, n, n+n/64)
	}
	l.sums = l.sums[:n]
	return kernel.PositiveSums{Lane: l.sums, Record: true}
}

// handOff turns step 1's record into step 3's bound for the final visual
// model, whose first len(labels) training points are the judged images
// under labels, in step 1's order, and init is step 1's visual model: a
// support vector is deferred when it is a judged-relevant image with a
// positive dual in step 1 too, so that its column is one of the lane's
// terms. The lane's columns are step 3's bits only under the same kernel, so
// it hands nothing off unless step 1 ran and both models are RBF of one
// gamma (the batch's default).
func (l *stepLane) handOff(init, final *svm.Model, labels []float64) {
	l.deferred, l.terms = l.deferred[:0], 0
	if !l.written {
		return
	}
	ki, ok := init.Kernel.(kernel.RBF)
	if kf, same := final.Kernel.(kernel.RBF); !ok || !same || ki != kf {
		return
	}
	for _, c := range init.Coefficients {
		if c > 0 {
			l.terms++
		}
	}
	t := 0
	for i, a := range final.Alphas {
		if !(a > 0) {
			continue
		}
		if i < len(labels) && labels[i] > 0 && init.Alphas[i] > 0 {
			l.deferred = append(l.deferred, t)
		}
		t++
	}
}

// bound is the lane as step 3's visual pass takes it: the zero value when
// no support vector is deferred, so an unwritten lane is never read.
func (l *stepLane) bound() kernel.PositiveSums {
	if len(l.deferred) == 0 {
		return kernel.PositiveSums{}
	}
	return kernel.PositiveSums{Lane: l.sums, Deferred: l.deferred, Terms: l.terms}
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
	p := newScanPass(ctx, b.VisualSet(), cands, fn, sink, result.units[:0])
	result.units = p.first
	if p.workers <= 1 {
		return p.drain(new(atomic.Int64), result)
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed error
	)
	// The workers share one copy of the pass, which only they move to the
	// heap, so the serial path above keeps p on the stack.
	shared := p
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := b.scratchGet()
			defer b.scratchPut(sc)
			sink.like(sc, result)
			err := shared.drain(&next, sc)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed = err
				return
			}
			sink.merge(result, sc)
		}()
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
		p.unit(sc, p.claim(t))
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
// The floor is the result arena's, and so are the rows the seed block
// scored into its selector (seedFloor, rankScratch.seeds), which the pass
// neither scores nor offers again.
type topKSink struct{ result *rankScratch }

func (topKSink) like(sc, proto *rankScratch) { sc.sel.reset(proto.sel.k) }

func (s topKSink) dst(sc *rankScratch, lo, n int) []float64 {
	sc.cut.bound, sc.cut.floor, sc.cut.done, sc.cut.lo, sc.cut.next = sc, &s.result.floor, s.result.seeds, lo, 0
	return sc.lane(laneScores, n)
}

// consume offers, a tile at a time, the rows the driver has not handed back
// and the seed block has not scored.
func (topKSink) consume(sc *rankScratch, _ int, scores []float64) {
	for i := sc.cut.next; i < len(scores); i += 64 {
		n := min(64, len(scores)-i)
		sc.Scored(i, n, ^uint64(0)>>(64-n)&^sc.Done(i, n))
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

// Done implements kernel.Bound: the rows of the tile the seed block scored.
func (sc *rankScratch) Done(lo, n int) uint64 {
	lo += sc.cut.lo
	done := sc.cut.done
	i, _ := slices.BinarySearch(done, lo)
	var mask uint64
	for ; i < len(done) && done[i] < lo+n; i++ {
		mask |= 1 << (done[i] - lo)
	}
	return mask
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
// collection-sized slice is materialized. A pass over every image starts
// from the floor of its seeds (seedFloor) and skips the rows they scored;
// the zero seedBlock is none.
func rankTopRanges(ctx *QueryContext, b *CollectionBatch, cands CandidateSet, k int, dst []Ranked, fn rangeScorer, seeds seedBlock) ([]Ranked, error) {
	n := b.VisualSet().Len()
	k = min(k, n)
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
	sc.seeds = sc.seeds[:0]
	if seeds.score != nil && cands.Lists == nil && cands.TailStart <= 0 {
		if err := sc.seedFloor(ctx, seeds, k, n); err != nil {
			return nil, err
		}
	}
	if err := scanRanges(ctx, b, cands, fn, topKSink{result: sc}, sc); err != nil {
		return nil, err
	}
	return sc.sel.drain(dst), nil
}

// blockScorer scores rows of the collection named by index, wherever they
// lie, into dst with the bits their pass's rangeScorer gives them, taking
// its temporaries from the arena sc.
type blockScorer func(sc *rankScratch, rows []int, dst []float64)

// seedBlock is what a top-K pass may start from: rows of the collection —
// given (LRF-CSVM's step 1 best rows), or picked around the judged
// positives of labeled by the log (LRF-2SVMs; vouchedSeeds), when log is
// set — and the scorer of the pass's bits for them (nil: no seeds).
type seedBlock struct {
	rows    []int
	log     *kernel.LogIndex
	labeled []LabeledExample
	score   blockScorer
}

// seedFloor starts the top-k pass of the result arena sc, over n images,
// from a floor: it scores the distinct rows of seeds as one block and, when
// there are at least k, keeps their scores in the pass's selector, raises
// the pass's floor to the k-th best of them — the floor the pass would
// publish had it scored them first — and leaves the rows in sc.seeds for
// the pass to skip. Those k rows are rows of the pass scored with its own
// bits, so every row the floor lets the tile skip ranks below k rows of the
// pass, and the pass keeps what it keeps without one. Only rows of the pass
// may raise its floor, so the caller seeds only a pass over every image.
// With fewer than k rows nothing is scored and sc.seeds is left empty.
func (sc *rankScratch) seedFloor(ctx *QueryContext, seeds seedBlock, k, n int) error {
	rows := append(sc.seeds[:0], seeds.rows...)
	if seeds.log != nil {
		rows = sc.vouchedSeeds(seeds.log, seeds.labeled, n, rows)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	sc.seeds = rows[:0]
	if len(rows) < k {
		return nil
	}
	if err := ctxErr(ctx.Ctx); err != nil {
		return err
	}
	scores := sc.lane(laneScores, len(rows))
	seeds.score(sc, rows, scores)
	for i, r := range rows {
		if sc.sel.admits(r, scores[i]) {
			sc.sel.push(r, scores[i])
		}
	}
	sc.cut.floor = &sc.floor
	sc.publish()
	sc.seeds = rows
	return nil
}

// vouchedSeeds appends to dst LRF-2SVMs' seed rows, at most seedRows of
// them: the distinct judged positives of labeled, ascending, then the
// images of the first n that the log judged relevant in a session where one
// of those positives was judged relevant, most such sessions first, ties by
// ascending index. Log judgments are real user judgments (see
// unlabeledSelector), so these are mostly the round's true top rows. The
// pick reads the log by image (the positives' columns) and by session (the
// images each judged relevant), and once the arena's buffers have grown it
// allocates nothing.
func (sc *rankScratch) vouchedSeeds(log *kernel.LogIndex, labeled []LabeledExample, n int, dst []int) []int {
	start := len(dst)
	for _, ex := range labeled {
		if ex.Label > 0 {
			dst = append(dst, ex.Index)
		}
	}
	pos := dst[start:]
	slices.Sort(pos)
	pos = slices.Compact(pos)
	dst = dst[:start+len(pos)]
	if len(pos) >= seedRows {
		return dst[:start+seedRows]
	}
	sessions := sc.sessions[:0]
	for _, p := range pos {
		for _, e := range log.Column(p).Entries {
			if e.Value > 0 {
				sessions = append(sessions, e.Index)
			}
		}
	}
	slices.Sort(sessions)
	sessions = slices.Compact(sessions)
	images, ix := sc.vouched[:0], log.Sessions()
	for _, s := range sessions {
		images = ix.AppendPositive(s, images)
	}
	slices.Sort(images)
	sc.tally.reset(seedRows - len(pos))
	for i := 0; i < len(images); {
		r, j := images[i], i+1
		for j < len(images) && images[j] == r {
			j++
		}
		if _, judged := slices.BinarySearch(pos, r); r < n && !judged && sc.tally.admits(r, float64(j-i)) {
			sc.tally.push(r, float64(j-i))
		}
		i = j
	}
	sc.ranked = sc.tally.drain(sc.ranked[:0])
	for _, c := range sc.ranked {
		dst = append(dst, c.Index)
	}
	sc.sessions, sc.vouched = sessions, images
	return dst
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
// materializes no collection-sized slice and runs on every worker. A pass
// that runs marks the arena's lane written, fn having recorded its sums, and
// hands it step 1's best rows as step 3's seeds. The draft is kept in the
// arena a.
func selectUnlabeledRanges(ctx *QueryContext, b *CollectionBatch, num int, covered *kernel.LogIndex, fn rangeScorer, a *trainArena) (indices []int, initialLabels []float64, err error) {
	labeled := a.sortedLabeled(ctx)
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
	a.drafted, a.initial = sc.pick.drain(a.drafted[:0], a.initial[:0])
	a.lane.written, a.lane.seeds = true, sc.pick.seeds(a.lane.seeds[:0])
	return a.drafted, a.initial, nil
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
// query prior around the descriptor q, which the visual pass's tile writes
// as it reads the rows and bounds by with the log decisions computed first.
// Step 1 selects by the decisions alone (nil q). pos is LRF-CSVM's step lane
// as the visual pass takes it, over the whole collection (recorded by step
// 1, stepLane.bound for step 3), or the zero value.
func coupledScorer(ctx *QueryContext, visualModel, logModel *svm.Model, q linalg.Vector, pos kernel.PositiveSums) rangeScorer {
	log := ctx.LogIndex
	return func(sc *rankScratch, sub *kernel.DenseSet, lo int, dst []float64) {
		pos := pos
		if pos.Lane != nil {
			pos.Lane = pos.Lane[lo : lo+sub.Len()]
		}
		visualModel.DecisionBounded(sub, dst, logDecisions(sc, logModel, log, lo, sub.Len()), sc.prior(q, sub.Len()), pos, &sc.tiles, sc.cut.bound)
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
// of the two-modality schemes (step 3 of Fig. 1), bounded by LRF-CSVM's step
// lane (stepLane.bound; the zero value for LRF-2SVMs).
func retrievalScorer(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model, pos kernel.PositiveSums) rangeScorer {
	return coupledScorer(ctx, visualModel, logModel, b.queryVector(ctx), pos)
}

// seedScorer is retrievalScorer over rows gathered from anywhere into one
// block of the arena (kernel.ShardedSet.GatherInto): the log decision per
// row (rowLogDecisions), then the query prior and the visual decision of
// the block with no bound, which neither reads a step lane nor needs one —
// a scored row has the same bits with or without it.
func seedScorer(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model) blockScorer {
	q, log := b.queryVector(ctx), ctx.LogIndex
	return func(sc *rankScratch, rows []int, dst []float64) {
		block := b.set.GatherInto(&sc.block, rows)
		visualModel.DecisionBounded(block, dst, rowLogDecisions(sc, logModel, log, rows), sc.prior(q, len(rows)), kernel.PositiveSums{}, &sc.tiles, nil)
	}
}

// rowLogDecisions is logDecisions for rows named by index: a linear model
// indexes its weight vector in the arena (kernel.WeightTable) and scores
// each row from its own log column, adding the row's sessions of w in
// ascending order, LinearAccumulateWeights' bits; another kernel scores row
// by row through svm.Model.Decision, as logDecisions does.
func rowLogDecisions(sc *rankScratch, m *svm.Model, log *kernel.LogIndex, rows []int) []float64 {
	dst := sc.lane(laneLog, len(rows))
	if w, linear := m.LinearWeights(); linear {
		sc.weights.Load(w)
		for i, r := range rows {
			dst[i] = sc.weights.Decision(m.Bias, log.Column(r))
		}
		sc.weights.Unload(w)
		return dst
	}
	for i, r := range rows {
		sc.col = log.Column(r)
		dst[i] = m.Decision(kernel.NewSparse(&sc.col))
	}
	return dst
}

// visualScorer scores by the decision value of a visual-modality model minus
// the query prior: RF-SVM's retrieval pass.
func visualScorer(ctx *QueryContext, b *CollectionBatch, model *svm.Model) rangeScorer {
	q := b.queryVector(ctx)
	return func(sc *rankScratch, sub *kernel.DenseSet, _ int, dst []float64) {
		model.DecisionBounded(sub, dst, nil, sc.prior(q, sub.Len()), kernel.PositiveSums{}, &sc.tiles, sc.cut.bound)
	}
}

// prior is the initial-similarity prior an SVM scheme's score subtracts
// from n rows, around the query's descriptor q (nil: none), written into
// the arena's prior lane by the pass that reads the rows; see
// queryPriorWeight for the rationale.
func (sc *rankScratch) prior(q linalg.Vector, n int) kernel.Prior {
	if q == nil {
		return kernel.Prior{}
	}
	return kernel.Prior{Query: q, Weight: queryPriorWeight, Lane: sc.lane(lanePrior, n)}
}

// rangeDistances writes the Euclidean distance from q to every row of a range
// into dst: what the Euclidean scheme negates into its score (the SVM
// schemes' prior weighs the same distance, kernel.Prior). Distances use the
// norm-expansion batch path (one matrix-vector product per range against
// the precomputed row norms, on the kernel backend's row dot);
// EXPERIMENTS.md documents the O(1e-15) per-score drift and the unchanged
// MAP metrics.
func rangeDistances(q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sub.SquaredDistancesInto(dst, q)
	for i := range dst {
		dst[i] = math.Sqrt(dst[i])
	}
}
