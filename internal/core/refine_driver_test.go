package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// TestRefineMatchesReference draws a collection, a log, a query, its
// judgments, LRF-CSVM's parameters and the serving shape (shard size,
// workers, k, how the context names its collection) from a seed, and holds
// every scheme, through Rank and through RankTopAppend, to referenceRefine,
// Float64bits: Euclidean (also through RankTopCandidates over a candidate
// set), RF-SVM, LRF-2SVMs (also pretrained), LRF-CSVM and LRFCSVMWithSelection
// under its four heuristics, whose drafted images, initial labels, duals,
// biases and counts must be the reference's too. The draws straddle the scan
// cuts (collections of 1…2,100 images across minUnitRows and the 2,048-row
// shard), reach images without a log entry, one-class and all-relevant
// judgments, every image judged and N′ beyond the candidates. A failure
// prints the fewest images and judgments found to fail the same way. A seed
// is all that replays a subtest:
// go test -run 'TestRefineMatchesReference/^seed=7$' ./internal/core
func TestRefineMatchesReference(t *testing.T) {
	seeds := uint64(48)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRefineDriver(t, seed) })
	}
}

// Each test below pins a regime, a shape the driver must keep reaching, to a
// seed that reaches it.
func TestRankTopShardedParity(t *testing.T)                   { refinePin(t, "shards", 3) }
func TestSchemesWorkerCountInvariant(t *testing.T)            { refinePin(t, "parallel", 3) }
func TestCollectionBatchGrowParity(t *testing.T)              { refinePin(t, "grown-batch", 11) }
func TestRankTopCandidatesFullCoverageParity(t *testing.T)    { refinePin(t, "candidates-full", 4) }
func TestRankTopCandidatesSubsetExact(t *testing.T)           { refinePin(t, "candidates-subset", 2) }
func TestTrainingProblemMatchesSortOracle(t *testing.T)       { refinePin(t, "uncovered-drafted", 1) }
func TestLRFCSVMGrownSolversMatchTrainCoupled(t *testing.T)   { refinePin(t, "one-class", 3) }
func TestPretrained2SVMsParity(t *testing.T)                  { refinePin(t, "top-k-strict", 3) }
func TestLRFCSVMDeterministic(t *testing.T)                   { refinePin(t, "flips", 1) }
func TestSelectUnlabeledRangesMatchesSortOracle(t *testing.T) { refinePin(t, "ties", 6) }
func TestTopKMatchesArgsort(t *testing.T)                     { refinePin(t, "top-k-strict", 3) }
func TestTopKTiedScoresDeterministic(t *testing.T)            { refinePin(t, "ties", 6) }
func TestTopKSelectorMergeOrderInvariant(t *testing.T)        { refinePin(t, "parallel-ties", 6) }
func TestRankTopEdgeCases(t *testing.T)                       { refinePin(t, "k-out-of-range", 2) }
func TestRankTopCandidatesEdgeCases(t *testing.T)             { refinePin(t, "candidates-edge", 1) }
func TestLRFCSVMWithSelectionStrategies(t *testing.T)         { refinePin(t, "drafted-random", 1) }
func TestTrainCSVMDraftsUnlabeled(t *testing.T)               { refinePin(t, "drafted-log-assisted", 1) }

func refinePin(t *testing.T, regime string, seed uint64) {
	t.Helper()
	seen := runRefineDriver(t, seed)
	if !seen[regime] {
		var reached []string
		for r, ok := range seen {
			if ok {
				reached = append(reached, r)
			}
		}
		slices.Sort(reached)
		t.Errorf("seed %d no longer reaches %s, only %v", seed, regime, reached)
	}
}

// refineCase is one draw: the collection and log, the query and its
// judgments, LRF-CSVM's parameters and the serving shape.
type refineCase struct {
	visual  []linalg.Vector
	logs    []*sparse.Vector
	query   int
	labeled []LabeledExample
	params  CSVMParams
	// shardSize and workers shape the scan; batch is how the context names
	// its collection: "attached", "with-visual" (an equal copy beside it),
	// "transient" (Visual alone) or "grown" (a batch grown from a prefix).
	shardSize, workers, k int
	batch                 string
	logIndex              bool // the context carries its log index
	twins                 bool // the second half repeats the first: every score ties
	seed                  uint64
}

func (c *refineCase) String() string {
	return fmt.Sprintf("%d images of %d, log of %d sessions, query %d, %d judged %v, params %+v, shard %d, %d workers, k %d, batch %s, log index %v",
		len(c.visual), len(c.visual[0]), c.logs[0].Dim, c.query, len(c.labeled), c.labeled, c.params, c.shardSize, c.workers, c.k, c.batch, c.logIndex)
}

func drawRefineCase(seed uint64) *refineCase {
	rng := linalg.NewRNG(seed)
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	n := pick(1, 2, 3, 5, 9, 17, 40, 64, 100, 150, 300)
	if rng.Bool(0.3) {
		n = pick(1023, 1024, 1025, 2047, 2048, 2049, 2100, 1+rng.Intn(2100))
	}
	dim, cats := pick(1, 2, 3, 5, 7, 36), 1+rng.Intn(6)
	c := &refineCase{visual: make([]linalg.Vector, n), logs: make([]*sparse.Vector, n), seed: seed}
	centres := make([]linalg.Vector, cats)
	for k := range centres {
		centres[k] = make(linalg.Vector, dim)
		for j := range centres[k] {
			centres[k][j] = rng.Normal(0, 2)
		}
	}
	for i := range c.visual {
		c.visual[i] = make(linalg.Vector, dim)
		for j := range c.visual[i] {
			c.visual[i][j] = centres[i%cats][j] + rng.Normal(0, 1)
		}
	}
	// Each session judges a few images by category; a share of the images
	// is judged by none.
	sessions, covered := pick(0, 1, 4, 30, 200), rng.Float64()
	for i := range c.logs {
		c.logs[i] = sparse.New(sessions)
	}
	for s := 0; s < sessions; s++ {
		cat := rng.Intn(cats)
		for range 1 + rng.Intn(20) {
			i, v := rng.Intn(n), -1.0
			if i%cats == cat {
				v = 1
			}
			if e := c.logs[i].Entries; rng.Float64() < covered && (len(e) == 0 || e[len(e)-1].Index < s) {
				c.logs[i].Entries = append(e, sparse.Entry{Index: s, Value: v})
			}
		}
	}
	if c.twins = n > 1 && rng.Bool(0.3); c.twins {
		h := (n + 1) / 2
		for i := h; i < n; i++ {
			c.visual[i], c.logs[i] = slices.Clone(c.visual[i-h]), c.logs[i-h]
		}
	}
	c.query = rng.Intn(n)
	judged := min(n, pick(1, 2, 8, 20, 30))
	for _, i := range rng.Perm(n)[:judged] {
		label := -1.0
		if i%cats == c.query%cats {
			label = 1
		}
		c.labeled = append(c.labeled, LabeledExample{Index: i, Label: label})
	}
	switch rng.Intn(8) {
	case 0: // all relevant: step 1 is one-class
		for i := range c.labeled {
			c.labeled[i].Label = 1
		}
	case 1: // a judgment given twice
		c.labeled = append(c.labeled, c.labeled[0])
	}
	c.params.NumUnlabeled = pick(0, 0, 1, 7, 64)
	if rng.Bool(0.3) {
		c.params.Coupled = CoupledConfig{Rho: 0.25, Delta: 0.5}
	}
	if rng.Bool(0.1) {
		c.params.LogKernel = LogRBFKernel(logIndexOf(&QueryContext{LogVectors: c.logs}), len(c.logs))
	}
	c.shardSize, c.workers = pick(7, 100, 2048, 0), 1+rng.Intn(3)
	c.k = pick(-3, 0, 1, 10, 100, n, n+5)
	c.batch = []string{"attached", "with-visual", "transient", "grown"}[rng.Intn(4)]
	c.logIndex = rng.Bool(0.7)
	return c
}

// context is the served query context of the case, as its batch field says.
func (c *refineCase) context() *QueryContext {
	ctx := &QueryContext{LogVectors: c.logs, Query: c.query, Labeled: c.labeled, Workers: c.workers}
	if c.logIndex {
		ctx.LogVectors, ctx.LogIndex = nil, logIndexOf(ctx)
	}
	switch c.batch {
	case "transient":
		ctx.Visual = c.visual
	case "grown":
		half := len(c.visual) / 2
		ctx.Batch = NewShardedCollectionBatch(c.visual[:half:half], c.shardSize).Append(c.visual[half:])
	default:
		ctx.Batch = NewShardedCollectionBatch(c.visual, c.shardSize)
	}
	if c.batch == "with-visual" {
		for _, v := range c.visual {
			ctx.Visual = append(ctx.Visual, slices.Clone(v))
		}
	}
	return ctx
}

// candidates draws the case's candidate set: every image before the tail in
// lists, a random subset of them, no image, or every image as the tail.
func (c *refineCase) candidates() CandidateSet {
	n := len(c.visual)
	rng := linalg.NewRNG(c.seed)
	switch rng.Intn(6) {
	case 0:
		return CandidateSet{TailStart: n}
	case 1:
		return CandidateSet{TailStart: -1}
	case 2, 3:
		return randomCandidates(rng, n)
	}
	tail := n - n/5
	all := make([]int32, tail)
	for i := range all {
		all[i] = int32(i)
	}
	return CandidateSet{Lists: splitLists(all, 1+rng.Intn(5)), TailStart: tail}
}

// runRefineDriver checks one seed's case, shrinking it on a failure, and
// returns the regimes it reached.
func runRefineDriver(t *testing.T, seed uint64) map[string]bool {
	t.Helper()
	c := drawRefineCase(seed)
	seen, err := c.check()
	if err != nil {
		t.Fatalf("seed %d: %s:\n%v\nshrunk: %s", seed, c, err, shrinkRefineCase(c, err))
	}
	return seen
}

// shrinkRefineCase looks for a smaller case that fails the same way — the
// same scheme and check — dropping the collection's last half, quarter, …,
// image, then one judgment at a time, then the parallel shape, and describes
// the smallest.
func shrinkRefineCase(c *refineCase, failure error) string {
	same := func(d *refineCase) bool {
		_, err := d.check()
		return err != nil && strings.SplitN(err.Error(), ":", 2)[0] == strings.SplitN(failure.Error(), ":", 2)[0]
	}
	for progress := true; progress; {
		progress = false
		var tries []*refineCase
		for cut := len(c.visual) / 2; cut > 0; cut /= 2 {
			d, n := *c, len(c.visual)-cut
			d.visual, d.logs, d.query = c.visual[:n], c.logs[:n], c.query%n
			d.labeled = slices.Clone(c.labeled)
			for i := range d.labeled {
				d.labeled[i].Index %= n
			}
			tries = append(tries, &d)
		}
		for i := range c.labeled {
			d := *c
			d.labeled = slices.Delete(slices.Clone(c.labeled), i, i+1)
			tries = append(tries, &d)
		}
		if c.workers != 1 || c.batch != "attached" {
			d := *c
			d.workers, d.batch = 1, "attached"
			tries = append(tries, &d)
		}
		for _, d := range tries {
			if len(d.labeled) > 0 && same(d) {
				c, progress = d, true
				break
			}
		}
	}
	_, err := c.check()
	return fmt.Sprintf("%s:\n%v", c, err)
}

// check runs every scheme on the case and returns the regimes it reached, or
// the first difference from the reference, named "scheme check: detail".
func (c *refineCase) check() (map[string]bool, error) {
	n := len(c.visual)
	refCtx := &QueryContext{Visual: c.visual, LogVectors: c.logs, Query: c.query, Labeled: c.labeled}
	type pair struct {
		served Scheme
		ref    refScheme
	}
	schemes := []pair{
		{Euclidean{}, refScheme{name: "Euclidean"}},
		{RFSVM{}, refScheme{name: "RF-SVM"}},
		{LRF2SVMs{LogKernel: c.params.LogKernel}, refScheme{name: "LRF-2SVMs", params: c.params}},
		{LRFCSVM{Params: c.params}, refScheme{name: "LRF-CSVM", params: c.params}},
	}
	for _, s := range []SelectionStrategy{SelectLogAssisted, SelectMaxMin, SelectBoundary, SelectRandom} {
		schemes = append(schemes, pair{LRFCSVMWithSelection{Params: c.params, Strategy: s, RandomSeed: c.seed}, refScheme{name: "LRF-CSVM", params: c.params, strategy: s, seed: c.seed}})
	}
	// One context serves every pass, as one collection batch serves every
	// query: each pass reuses the arenas the passes before it returned.
	ctx := c.context()
	set := ctx.collectionBatch().VisualSet()
	seen := map[string]bool{
		"shards":         set.NumShards() > 1 && c.workers > 1,
		"parallel":       newScanPass(ctx, set, CandidateSet{}, nil, nil).workers > 1,
		"grown-batch":    c.batch == "grown" && n > 1,
		"top-k-strict":   c.k > 0 && c.k < n,
		"k-out-of-range": c.k < 0 || c.k > n,
	}
	seen["parallel-ties"] = seen["parallel"] && c.twins
	for _, s := range schemes {
		name := s.served.Name()
		want, err := referenceRefine(refCtx, s.ref)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		scores, err := s.served.Rank(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s Rank: %w", name, err)
		}
		if i := firstDiff(scores, want.scores); i >= 0 {
			return nil, fmt.Errorf("%s Rank: image %d of %d scores %v, reference %v", name, i, len(scores), at(scores, i), at(want.scores, i))
		}
		wantTop := refTop(want.scores, nil, c.k)
		got, err := s.served.RankTopAppend(ctx, c.k, make([]Ranked, 0, 3))
		if err := sameRanking(got, err, wantTop); err != nil {
			return nil, fmt.Errorf("%s RankTopAppend: %w", name, err)
		}
		switch served := s.served.(type) {
		case Euclidean:
			cands := c.candidates()
			member := func(i int) bool {
				return i >= cands.TailStart || slices.ContainsFunc(cands.Lists, func(l []int32) bool { _, ok := slices.BinarySearch(l, int32(i)); return ok })
			}
			got, err := served.RankTopCandidates(ctx, cands, c.k, nil)
			if err := sameRanking(got, err, refTop(want.scores, member, c.k)); err != nil {
				return nil, fmt.Errorf("%s RankTopCandidates: %w", name, err)
			}
			listed := len(slices.Concat(cands.Lists...))
			seen["candidates-full"] = listed > 0 && listed == cands.TailStart
			seen["candidates-subset"] = listed < cands.TailStart && c.k > 0
			seen["candidates-edge"] = cands.Lists == nil && (cands.TailStart < 0 || cands.TailStart == n) && c.k > 0
		case LRF2SVMs:
			pre, err := served.Pretrain(ctx)
			if err == nil {
				got, err = pre.RankTopAppend(ctx, c.k, nil)
			}
			if err := sameRanking(got, err, wantTop); err != nil {
				return nil, fmt.Errorf("%s pretrained: %w", name, err)
			}
		case LRFCSVM, LRFCSVMWithSelection:
			if err := c.checkCoupled(ctx, name, s.ref, want, seen); err != nil {
				return nil, err
			}
		}
	}
	return seen, nil
}

// checkCoupled holds LRF-CSVM's steps 1 and 2 to the reference: the drafted
// images and their initial labels, then the coupled result's labels, duals,
// biases and counts.
func (c *refineCase) checkCoupled(ctx *QueryContext, name string, ref refScheme, want *refResult, seen map[string]bool) error {
	sel := LRFCSVMWithSelection{Strategy: ref.strategy, RandomSeed: ref.seed}.selection()
	step1, err := ctx.validated(true)
	if err != nil {
		return fmt.Errorf("%s step 1: %w", name, err)
	}
	mods, _, initial, _, err := trainingProblem(step1, step1.collectionBatch(), c.params.withDefaults(), sel)
	if err != nil {
		return fmt.Errorf("%s step 1: %w", name, err)
	}
	if !slices.Equal(initial, want.initial) || len(mods[0].Unlabeled) != len(want.drafted) {
		return fmt.Errorf("%s step 1: initial labels %v, reference %v of %v", name, initial, want.initial, want.drafted)
	}
	for i, idx := range want.drafted {
		if !slices.Equal(mods[0].Unlabeled[i].(kernel.Dense), kernel.Dense(c.visual[idx])) {
			return fmt.Errorf("%s step 1: drafted point %d is not image %d of %v", name, i, idx, want.drafted)
		}
	}
	_, got, _, err := trainCSVM(ctx, c.params, sel)
	if err != nil {
		return fmt.Errorf("%s step 2: %w", name, err)
	}
	w := want.coupled
	if g, r := [4]int{got.Flips, got.Retrainings, got.RhoSteps, got.SolverIterations}, [4]int{w.Flips, w.Retrainings, w.RhoSteps, w.SolverIterations}; g != r || !slices.Equal(got.UnlabeledLabels, w.UnlabeledLabels) {
		return fmt.Errorf("%s step 2: flips, retrainings, rho steps, iterations %v, labels %v; reference %v, %v", name, g, got.UnlabeledLabels, r, w.UnlabeledLabels)
	}
	for m, wm := range w.Models {
		gm := got.Models[m]
		if i := firstDiff(gm.Alphas, wm.Alphas); i >= 0 || math.Float64bits(gm.Bias) != math.Float64bits(wm.Bias) {
			return fmt.Errorf("%s step 2: modality %d bias %v, alpha %d of %d; reference %v", name, m, gm.Bias, i, len(gm.Alphas), wm.Bias)
		}
	}
	uncovered := slices.ContainsFunc(want.drafted, func(i int) bool { return len(c.logs[i].Entries) == 0 })
	seen["uncovered-drafted"] = seen["uncovered-drafted"] || uncovered && len(want.drafted) == c.params.withDefaults().NumUnlabeled
	seen["one-class"] = seen["one-class"] || len(want.drafted) > 0 && !slices.ContainsFunc(c.labeled, func(ex LabeledExample) bool { return ex.Label < 0 })
	seen["flips"] = seen["flips"] || w.Flips > 0
	seen["ties"] = seen["ties"] || c.twins && len(want.drafted) > 1
	seen["drafted-"+ref.strategy.String()] = len(want.drafted) > 0
	return nil
}

// sameRanking compares a served ranking with the reference's, indices and
// score bits.
func sameRanking(got []Ranked, err error, want []Ranked) error {
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Index != want[i].Index || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("result %d is %+v, reference %+v", i, r, want[i])
		}
	}
	return nil
}

// firstDiff is the first index where a and b differ in bits or length, or
// -1.
func firstDiff(a, b []float64) int {
	for i := range max(len(a), len(b)) {
		if i >= min(len(a), len(b)) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func at(xs []float64, i int) float64 {
	if i < 0 || i >= len(xs) {
		return math.NaN()
	}
	return xs[i]
}
