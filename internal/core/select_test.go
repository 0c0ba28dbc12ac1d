package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// logAssistedSelection is the select-by-sort implementation of the
// log-assisted heuristic that step 1 ran before it became a streaming pass,
// kept as the oracle of the streaming selection: every candidate is fully
// sorted by its score, descending, ties by ascending index (candidates
// ascend), then the presumed positives are drafted from the candidates log
// covers best first, the remainder of the half is filled from the global
// ranking, and the presumed negatives are drafted from the global minimum
// upwards. Over a log that covers no image it is the max-min heuristic.
func logAssistedSelection(log *kernel.LogIndex, candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	half := num / 2
	if half == 0 {
		half = 1
	}
	order := slices.Clone(candidates)
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(combined[b], combined[a]) })
	picked := make(map[int]bool, num)
	draft := func(idx int, label float64) {
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, label)
	}

	// Presumed positives: best-scoring log-covered candidates first.
	for _, idx := range order {
		if len(indices) < half && log.Covered(idx) {
			draft(idx, 1)
		}
	}
	// Fill up from the global ranking if the log-covered pool ran dry.
	for _, idx := range order {
		if len(indices) < half && !picked[idx] {
			draft(idx, 1)
		}
	}
	// Presumed negatives: global minimum of the combined score.
	for i := len(order) - 1; i >= 0 && len(indices) < num; i-- {
		if idx := order[i]; !picked[idx] {
			draft(idx, -1)
		}
	}
	return indices, initialLabels
}

// copyScorer streams a materialized score slice, so a test decides every
// score the streaming selection sees.
func copyScorer(scores []float64) rangeScorer {
	return func(_ *rankScratch, _ *kernel.DenseSet, lo int, dst []float64) {
		copy(dst, scores[lo:lo+len(dst)])
	}
}

// selectionCase is one seeded input of the selection property test.
type selectionCase struct {
	visual   []linalg.Vector
	logs     []*sparse.Vector
	labeled  []LabeledExample
	combined []float64
}

// randomSelectionCase draws n images whose combined scores come from only a
// handful of distinct values (both zeros included), so exact ties straddle
// every shard boundary; covered is the fraction of images the log covers and
// numLabeled the size of the judged set (one index listed twice).
func randomSelectionCase(rng *linalg.RNG, n int, covered float64, numLabeled int) selectionCase {
	levels := []float64{-2.5, -1, 0, 0.25, 0.25, 1, 3}
	negZero := math.Copysign(0, -1)
	c := selectionCase{
		visual:   make([]linalg.Vector, n),
		logs:     make([]*sparse.Vector, n),
		combined: make([]float64, n),
	}
	for i := range c.visual {
		c.visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
		c.logs[i] = sparse.New(4)
		if rng.Float64() < covered {
			c.logs[i].Set(rng.Intn(4), 1)
		}
		c.combined[i] = levels[rng.Intn(len(levels))]
		if c.combined[i] == 0 && rng.Intn(2) == 0 {
			c.combined[i] = negZero
		}
	}
	for _, idx := range rng.Perm(n)[:numLabeled] {
		c.labeled = append(c.labeled, LabeledExample{Index: idx, Label: 1})
	}
	if numLabeled > 0 {
		c.labeled = append(c.labeled, c.labeled[0])
	}
	return c
}

// passSinks names the three things a driver pass can keep.
var passSinks = []string{"scores", "top-K", "unlabeled"}

// unvisited marks, in a full-scores pass, the rows no range covered.
var unvisited = math.Float64bits(math.NaN())

// runPass runs one pass of the driver over cands with the named sink and
// returns what it kept: the score row (rows outside cands left unvisited), the
// top k, or step 1's drafted images and labels. The exhaustive passes go
// through the production wrappers, the pruned ones through scanRanges itself
// (production prunes only top-K passes).
func runPass(ctx *QueryContext, b *CollectionBatch, cands CandidateSet, sink string, k int, fn rangeScorer) (scores []float64, top []Ranked, idx []int, labels []float64, err error) {
	exhaustive := cands.Lists == nil && cands.TailStart == 0
	sc := b.scratchGet()
	defer b.scratchPut(sc)
	switch sink {
	case "scores":
		if exhaustive {
			scores, err = scanScores(ctx, b, fn)
			return
		}
		scores = make([]float64, b.VisualSet().Len())
		for i := range scores {
			scores[i] = math.Float64frombits(unvisited)
		}
		if err = scanRanges(ctx, b, cands, fn, scoreSink(scores), sc); err != nil {
			scores = nil
		}
	case "top-K":
		top, err = rankTopRanges(ctx, b, cands, k, nil, fn, seedBlock{})
	case "unlabeled":
		if exhaustive {
			indexed := *ctx
			indexed.LogVectors, indexed.LogIndex = nil, logIndexOf(ctx)
			idx, labels, err = selectUnlabeledRanges(&indexed, b, k, indexed.LogIndex, fn, new(trainArena))
			return
		}
		labeled := new(trainArena).sortedLabeled(ctx)
		// The draft is clamped to the unlabeled images the pass names, as
		// selectUnlabeledRanges clamps it to the collection's.
		n, named := b.VisualSet().Len(), 0
		for _, r := range subsetTopK(make([]float64, n), cands, n, n) {
			if _, found := slices.BinarySearch(labeled, r.Index); !found {
				named++
			}
		}
		sc.pick.reset(min(k, named))
		if err = scanRanges(ctx, b, cands, fn, unlabeledSink{labeled: labeled, log: logIndexOf(ctx)}, sc); err == nil {
			idx, labels = sc.pick.drain(nil, nil)
		}
	}
	return
}

// randomCandidates draws a candidate set over n images: a random 40% of the
// prefix grouped into a few lists, plus the last fifth as the tail.
func randomCandidates(rng *linalg.RNG, n int) CandidateSet {
	tailStart := n - n/5
	var subset []int32
	for i := 0; i < tailStart; i++ {
		if rng.Float64() < 0.4 {
			subset = append(subset, int32(i))
		}
	}
	return CandidateSet{Lists: splitLists(subset, 1+rng.Intn(5)), TailStart: tailStart}
}

// TestScanRangesMatchesNaiveOracle is the parity property of the scoring
// driver: every source (every shard; candidate runs plus the tail) under
// every sink (all scores, top K, step 1's selection), for every shard size
// and worker count, keeps exactly what the naive computation keeps — every
// score materialized, filtered to the candidates and fully sorted — down to
// the bits of the scores, on seeded scores full of exact ties and both zeros.
// The fifth collection spans two default shards, so at the serving shard size
// too every sink runs on two workers and merges their arenas. The sixth's log
// covers no image, so step 1 drafts what the max-min heuristic drafts: the
// oracle runs over an empty log. The seventh has fewer unlabeled images than
// k, so every one of them is drafted, split between the two halves.
func TestScanRangesMatchesNaiveOracle(t *testing.T) {
	rng := linalg.NewRNG(20260928)
	const k = 16
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for rep, col := range []struct {
		n, numLabeled int
		covered       float64
	}{{300, 20, 0.5}, {300, 20, 0.5}, {300, 20, 0.5}, {300, 20, 0.5}, {kernel.DefaultShardSize + 52, 20, 0.5}, {300, 20, 0}, {24, 12, 0.5}} {
		n := col.n
		c := randomSelectionCase(rng, n, col.covered, col.numLabeled)
		base := &QueryContext{Visual: c.visual, LogVectors: c.logs, Labeled: c.labeled}
		labeled := base.labeledSet()
		log := logIndexOf(base)
		if col.covered == 0 {
			log = &kernel.LogIndex{}
		}
		for _, cands := range []CandidateSet{{}, randomCandidates(rng, n)} {
			// The oracle: which images the source names, then plain sorts.
			member := make([]bool, n)
			for _, r := range subsetTopK(c.combined, cands, n, n) {
				member[r.Index] = true
			}
			wantScores := make([]float64, n)
			var unlabeledMembers []int
			for i := range wantScores {
				wantScores[i] = math.Float64frombits(unvisited)
				if member[i] {
					wantScores[i] = c.combined[i]
					if !labeled[i] {
						unlabeledMembers = append(unlabeledMembers, i)
					}
				}
			}
			wantTop := subsetTopK(c.combined, cands, n, k)
			wantIdx, wantLabels := logAssistedSelection(log, unlabeledMembers, c.combined, k)

			for _, shardSize := range []int{1, 7, kernel.DefaultShardSize} {
				batch := NewShardedCollectionBatch(c.visual, shardSize)
				for _, workers := range []int{1, 2, 5} {
					for _, sink := range passSinks {
						name := fmt.Sprintf("rep=%d n=%d lists=%d sink=%s shard=%d workers=%d", rep, n, len(cands.Lists), sink, shardSize, workers)
						ctx := *base
						ctx.Batch, ctx.Workers = batch, workers
						if p := newScanPass(&ctx, batch.VisualSet(), cands, nil, nil, nil); n > kernel.DefaultShardSize && workers > 1 && p.workers < 2 {
							t.Fatalf("%s: the pass runs on %d worker", name, p.workers)
						}
						scores, top, idx, labels, err := runPass(&ctx, batch, cands, sink, k, copyScorer(c.combined))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						switch sink {
						case "scores":
							if !sameBits(scores, wantScores) {
								t.Fatalf("%s: score row differs from the oracle's", name)
							}
						case "top-K":
							if !slices.EqualFunc(top, wantTop, func(a, b Ranked) bool {
								return a.Index == b.Index && math.Float64bits(a.Score) == math.Float64bits(b.Score)
							}) {
								t.Fatalf("%s: top %d = %v, oracle %v", name, k, top, wantTop)
							}
						case "unlabeled":
							if !slices.Equal(idx, wantIdx) || !sameBits(labels, wantLabels) {
								t.Fatalf("%s: drafted %v %v, oracle %v %v", name, idx, labels, wantIdx, wantLabels)
							}
						}
						if got := batch.leased.Load(); got != 0 {
							t.Fatalf("%s: %d scratch arenas not returned", name, got)
						}
					}
				}
			}
		}
	}
}

// A pass cancelled mid-way returns the context's error and nothing of what it
// kept — a partial pass would rank or draft from the ranges that happened to
// be scored — and hands every scratch arena back, whatever its source and
// sink and however many workers ran it.
func TestSelectUnlabeledRangesCancelled(t *testing.T) {
	rng := linalg.NewRNG(7)
	c := randomSelectionCase(rng, 240, 0.5, 12)
	batch := NewShardedCollectionBatch(c.visual, 10) // 24 shards, so a small check budget cancels mid-pass
	for _, cands := range []CandidateSet{{}, randomCandidates(rng, 240)} {
		for _, sink := range passSinks {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("lists=%d sink=%s workers=%d", len(cands.Lists), sink, workers)
				ctx := &QueryContext{Visual: c.visual, LogVectors: c.logs, Labeled: c.labeled, Batch: batch, Workers: workers}
				ctx.Ctx = newCountdownCtx(2)
				scores, top, idx, labels, err := runPass(ctx, batch, cands, sink, 16, copyScorer(c.combined))
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled pass error = %v, want context.Canceled", name, err)
				}
				if scores != nil || top != nil || idx != nil || labels != nil {
					t.Fatalf("%s: cancelled pass kept %v %v %v %v", name, scores, top, idx, labels)
				}
				if got := batch.leased.Load(); got != 0 {
					t.Fatalf("%s: %d scratch arenas not returned after cancellation", name, got)
				}
			}
		}
	}

	// The same through the scheme: the error surfaces, no ranking does.
	coll := makeCollection(t, 3, 12, 30, 0, 13)
	qctx := coll.queryContext(2, 8)
	qctx.Workers = 1
	qctx.Batch = NewShardedCollectionBatch(coll.visual, 4)
	// The two initial trainings poll the context once each (at entry; they
	// are far shorter than the solver's poll interval), so the cancellation
	// lands in step 1's selection scan.
	qctx.Ctx = newCountdownCtx(5)
	if got, err := RankTop(LRFCSVM{}, qctx, 5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled RankTop(LRFCSVM{}) = %v, %v; want nil, context.Canceled", got, err)
	}
	if got := qctx.Batch.leased.Load(); got != 0 {
		t.Fatalf("%d scratch arenas not returned after a cancelled refine", got)
	}
}

// selectBenchProblem builds step 1 at benchmark scale: n images of 36
// dimensions in categories of 100, a log of n/25 sessions judging 20 images
// each (half from the query's category — the shape of the repository
// benchmark's generator, which leaves a little under half the images
// uncovered) with its session index, a 20-image judged page and the two
// initial models.
func selectBenchProblem(tb testing.TB, n int) (ctx *QueryContext, visualInit, logInit *svm.Model) {
	tb.Helper()
	const dim, perCategory, page = 36, 100, 20
	rng := linalg.NewRNG(uint64(n))
	categories := (n + perCategory - 1) / perCategory
	centres := make([]linalg.Vector, categories)
	for c := range centres {
		centres[c] = make(linalg.Vector, dim)
		for j := range centres[c] {
			centres[c][j] = rng.Normal(0, 1)
		}
	}
	visual := make([]linalg.Vector, n)
	for i := range visual {
		visual[i] = make(linalg.Vector, dim)
		for j := range visual[i] {
			visual[i][j] = centres[i/perCategory][j] + rng.Normal(0, 1.6)
		}
	}
	log := feedbacklog.NewLog(n)
	for s := 0; s < n/25; s++ {
		q := rng.Intn(n)
		judged := make(map[int]feedbacklog.Judgment, page)
		for len(judged) < page {
			img := rng.Intn(n)
			if len(judged) < page/2 {
				img = min(q/perCategory*perCategory+rng.Intn(perCategory), n-1)
			}
			judged[img] = feedbacklog.Irrelevant
			if img/perCategory == q/perCategory {
				judged[img] = feedbacklog.Relevant
			}
		}
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: q, Judgments: judged}); err != nil {
			tb.Fatal(err)
		}
	}
	ctx = &QueryContext{Visual: visual, LogIndex: log.ExtendIndex(nil), Query: 0}
	for i := 0; i < page; i++ {
		// Half the page from the query's category, half from elsewhere.
		ex := LabeledExample{Index: i / 2, Label: 1}
		if i%2 == 1 {
			ex = LabeledExample{Index: n - 1 - i, Label: -1}
		}
		ctx.Labeled = append(ctx.Labeled, ex)
	}
	ctx.Batch = NewCollectionBatch(visual)
	v, l, err := LRF2SVMs{}.train(ctx, ctx.Batch, new(trainArena))
	if err != nil {
		tb.Fatal(err)
	}
	return ctx, v.Model(), l.Model()
}

var selectSink []int

// BenchmarkSelectUnlabeled measures step 1's scoring-and-selection pass with
// pretrained initial models on GOMAXPROCS workers (-cpu 1 is the serial
// path), in one training arena reused across passes as the batch's free
// list reuses a served refine's. B/op is the streaming pass's point: the
// select-by-sort it replaced allocated four collection-sized slices
// (≈ 4 × 8 × N bytes) per refine.
func BenchmarkSelectUnlabeled(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"5k", 5000}, {"50k", 50000}} {
		b.Run(size.name, func(b *testing.B) {
			ctx, visualInit, logInit := selectBenchProblem(b, size.n)
			// One untimed pass fills the scratch pool and sizes the arena's
			// lane, as any earlier refine on the engine's batch has.
			a := new(trainArena)
			if _, _, err := selectStreamed(ctx, ctx.Batch, visualInit, logInit, 16, ctx.LogIndex, a); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, _, err := selectStreamed(ctx, ctx.Batch, visualInit, logInit, 16, ctx.LogIndex, a)
				if err != nil || len(idx) != 16 {
					b.Fatalf("drafted %d images, err %v", len(idx), err)
				}
				selectSink = idx
			}
		})
	}
}

// steadyBytesPerPass is the heap bytes one call of pass allocates once the
// scratch pool is warm: the mean over 20 passes after an unmeasured first.
func steadyBytesPerPass(pass func()) int64 {
	const passes = 20
	var before, after runtime.MemStats
	pass() // fills the scratch pool and the pass's arena
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / passes
}

// requireBytesDoNotGrowWithN fails when a pass over 16,000 images allocates
// more than a pass over 2,000 plus two bytes per added image: a quarter of
// the smallest collection-sized slice, and room for a GC emptying the scratch
// pool mid-measurement.
func requireBytesDoNotGrowWithN(t *testing.T, what string, bytesPerOp func(n int) int64) {
	t.Helper()
	const small, large = 2000, 16000
	bs, bl := bytesPerOp(small), bytesPerOp(large)
	t.Logf("%s allocates %d B/op at %d images, %d B/op at %d", what, bs, small, bl, large)
	if limit := bs + 2*(large-small); bl > limit {
		t.Fatalf("%s allocates %d B/op at %d images against %d B/op at %d: it grows with the collection", what, bl, large, bs, small)
	}
}

// TestSelectUnlabeledBytesDoNotGrowWithN pins the allocation contract of the
// streaming step 1: a pass allocates the drafted selection and its own
// bookkeeping, never a collection-sized slice (the select-by-sort allocated
// 4 × 8 bytes per image: 64 KB against 512 KB at these sizes). The RBF
// tile's working memory is the pooled scoring arena's, so nothing scales per
// range, and the step lane the pass records is the training arena's, reused
// across passes as the batch's free list reuses a served refine's: a lane
// sized afresh per pass would be the one collection-sized slice.
func TestSelectUnlabeledBytesDoNotGrowWithN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so lanes are reallocated per range")
	}
	bytesPerOp := func(n int) int64 {
		ctx, visualInit, logInit := selectBenchProblem(t, n)
		ctx.Workers = 1 // the parallel path adds its goroutines, whatever n is
		a := new(trainArena)
		return steadyBytesPerPass(func() {
			if _, _, err := selectStreamed(ctx, ctx.Batch, visualInit, logInit, 16, ctx.LogIndex, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	requireBytesDoNotGrowWithN(t, "step 1", bytesPerOp)
}
