package core

import (
	"fmt"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/svm"
)

// CSVMParams parameterizes the practical LRF-CSVM algorithm of Fig. 1. The
// zero value is the configuration every table, the server and the benchmark
// run (withDefaults).
type CSVMParams struct {
	// NumUnlabeled is N', the number of unlabeled images drafted into the
	// transductive learning task. Half are taken closest to the positive
	// region, half closest to the negative region.
	NumUnlabeled int
	// Coupled controls the alternating optimization (rho ceiling, Delta).
	Coupled CoupledConfig
	// LogKernel overrides the kernel over user-log vectors; nil selects the
	// linear co-judgment kernel (defaultLogKernel).
	LogKernel kernel.Kernel
}

// withDefaults resolves the zero values of p; it is the one place LRF-CSVM's
// defaults live. The paper reports none of its choices (Section 6.5 only says
// they matter): N' = 16, rho = 1 and Delta = 1 are what the main tables, the
// golden MAPs, the server and the benchmark have always run, and the row
// every lrfbench -ablation sweep contains.
//
// The paper anneals rho "until it achieves a setting threshold". A lower
// ceiling keeps the transductive points from dominating the labeled feedback
// and a smaller Delta corrects more labels; rho = 0.25, Delta = 0.5, selected
// on a held-out synthetic collection, is what the sweeps ran around until
// PR 20, but no table used it and on the CI profile it ranks no better
// (EXPERIMENTS.md "PR 20"). Adopting another pair re-pins the golden MAPs.
func (p CSVMParams) withDefaults() CSVMParams {
	if p.NumUnlabeled <= 0 {
		p.NumUnlabeled = 16
	}
	if p.Coupled.Rho <= 0 {
		p.Coupled.Rho = 1
	}
	if p.Coupled.Delta <= 0 {
		p.Coupled.Delta = 1
	}
	if p.LogKernel == nil {
		p.LogKernel = defaultLogKernel
	}
	return p
}

// LRFCSVM is the paper's log-based relevance feedback algorithm by coupled
// SVM (Fig. 1): it selects informative unlabeled images using both
// modalities, trains the coupled SVM with annealed transductive weighting
// and label correction, and ranks the collection by the combined decision
// value.
type LRFCSVM struct {
	Params CSVMParams
}

// Name implements Scheme.
func (LRFCSVM) Name() string { return "LRF-CSVM" }

// scorer implements rangeScored: steps 1-2 of Fig. 1, then step 3's scorer —
// the coupled decision value, with the same initial-similarity tie-break
// prior as the other SVM schemes — and step 1's lane.
func (s LRFCSVM) scorer(ctx *QueryContext) (scoring, error) {
	final, _, err := trainCSVM(ctx, s.Params, selectLogAssisted)
	return final, err
}

// Rank implements Scheme.
func (s LRFCSVM) Rank(ctx *QueryContext) ([]float64, error) { return rankScores(s, ctx) }

// unlabeledSelection is the selection heuristic of step 1 of Fig. 1: given
// the two per-modality SVMs trained on the labeled data alone, it drafts up
// to num unlabeled images and their initial labels, in training order, and
// records lane's sums if its pass scores every image (nil: no lane).
// selectLogAssisted is the algorithm's own; LRFCSVMWithSelection swaps in the
// ablation heuristics.
type unlabeledSelection func(ctx *QueryContext, batch *CollectionBatch, visualInit, logInit *svm.Model, num int, lane *stepLane) (indices []int, initialLabels []float64, err error)

// selectLogAssisted is the log-assisted heuristic as a streaming pass: every
// shard range is scored by the two initial models and selected from on the
// spot, like the final retrieval pass.
func selectLogAssisted(ctx *QueryContext, batch *CollectionBatch, visualInit, logInit *svm.Model, num int, lane *stepLane) ([]int, []float64, error) {
	return selectStreamed(ctx, batch, visualInit, logInit, num, ctx.LogIndex, lane)
}

// selectMaxMin is the paper's max/min heuristic: the same pass over a log
// that covers no image (the scores still read the log).
func selectMaxMin(ctx *QueryContext, batch *CollectionBatch, visualInit, logInit *svm.Model, num int, lane *stepLane) ([]int, []float64, error) {
	return selectStreamed(ctx, batch, visualInit, logInit, num, (*kernel.LogIndex)(nil).Extend(nil), lane)
}

// selectStreamed drafts through step 1's streaming pass with the coverage
// index covered, recording the lane as it scores. A pass that drafts runs
// over every image, so a draft means the lane is written and seeded; with
// nothing to draft the pass does not run and the lane stays unwritten.
func selectStreamed(ctx *QueryContext, batch *CollectionBatch, visualInit, logInit *svm.Model, num int, covered *kernel.LogIndex, lane *stepLane) ([]int, []float64, error) {
	var pos kernel.PositiveSums
	if lane != nil {
		pos = kernel.PositiveSums{Lane: lane.sums, Record: true}
	}
	return selectUnlabeledRanges(ctx, batch, num, covered, coupledScorer(ctx, visualInit, logInit, nil, pos), lane)
}

// trainingProblem runs step 1 of Fig. 1 — the per-modality initial SVMs and
// the unlabeled selection — and assembles the coupled training problem,
// with step 1's solver of each modality. A lane (nil: none) is recorded and
// seeded by the selection and keeps step 1's visual model and the rows whose
// units step 3 scans first: the query and the drafted positives.
func trainingProblem(ctx *QueryContext, batch *CollectionBatch, p CSVMParams, sel unlabeledSelection, lane *stepLane) (modalities []Modality, labels, initialLabels []float64, labeled []*svm.Solver, err error) {
	labeledIdx, labels := labeledSplit(ctx)

	// Step 1 — select N' unlabeled samples. Train one SVM per modality on
	// the labeled data only — exactly LRF-2SVMs' two models — and score
	// every image by the sum of the two decision values; draft N'/2
	// presumed-positive images (the log-covered images closest to the
	// positive labeled data by the combined score) with initial label +1 and
	// the N'/2 images with the smallest combined score with initial label -1
	// (Fig. 1, step 1, the discussion in Section 6.5, and the log-assisted
	// selection of Hoi & Lyu ACM-MM'04; see unlabeledSelector).
	visualInit, logInit, err := LRF2SVMs{LogKernel: p.LogKernel}.train(ctx, batch)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: LRF-CSVM init: %w", err)
	}
	visualModel := visualInit.Model()
	unlabeledIdx, initialLabels, err := sel(ctx, batch, visualModel, logInit.Model(), p.NumUnlabeled, lane)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if lane != nil {
		lane.init = visualModel
		lane.first = append(lane.first[:0], ctx.Query)
		for i, y := range initialLabels {
			if y > 0 {
				lane.first = append(lane.first, unlabeledIdx[i])
			}
		}
	}
	modalities = []Modality{
		{Name: "visual", Kernel: batch.defaultVisualKernel(), C: svmCost, Labeled: batch.visualPoints(labeledIdx)},
		{Name: "log", Kernel: p.LogKernel, C: svmCost, Labeled: ctx.logPoints(labeledIdx)},
	}
	modalities[0].Unlabeled = batch.visualPoints(unlabeledIdx)
	modalities[1].Unlabeled = ctx.logPoints(unlabeledIdx)
	return modalities, labels, initialLabels, []*svm.Solver{visualInit, logInit}, nil
}

// TrainingProblem extracts the coupled-SVM training problem — modalities,
// labeled-set labels and initial unlabeled labels — that this scheme would
// hand to TrainCoupled for the given context, unlabeled selection included.
// It exists so benchmarks (bench/'s depth replay) can measure TrainCoupled
// on exactly the problems the feedback path produces.
func (s LRFCSVM) TrainingProblem(ctx *QueryContext) ([]Modality, []float64, []float64, error) {
	ctx, err := ctx.validated(true)
	if err != nil {
		return nil, nil, nil, err
	}
	modalities, labels, initialLabels, _, err := trainingProblem(ctx, ctx.collectionBatch(), s.Params.withDefaults(), selectLogAssisted, nil)
	return modalities, labels, initialLabels, err
}

// trainCSVM validates the context and runs steps 1-2 of Fig. 1: unlabeled
// selection with the given heuristic and the annealed coupled-SVM
// optimization. It returns the coupled models with step 3's scoring, which
// shares step 1's log index and reads step 1's lane; the caller releases it.
// On an error the lane is back on the batch's free list.
func trainCSVM(ctx *QueryContext, params CSVMParams, sel unlabeledSelection) (final scoring, coupled *CoupledResult, err error) {
	ctx, err = ctx.validated(true)
	if err != nil {
		return scoring{}, nil, err
	}
	batch := ctx.collectionBatch()
	lane := batch.laneGet()
	defer func() {
		if err != nil {
			batch.lanePut(lane)
		}
	}()
	p := params.withDefaults()
	modalities, labels, initialLabels, labeled, err := trainingProblem(ctx, batch, p, sel, lane)
	if err != nil {
		return scoring{}, nil, err
	}

	// Step 2 — train the coupled SVM with annealed unlabeled weighting and
	// label correction, through step 1's solvers grown by the drafted points;
	// cancelling the query cancels its training rounds too.
	p.Coupled.Ctx = ctx.Ctx
	coupled, err = trainCoupled(modalities, labels, initialLabels, p.Coupled, labeled)
	if err != nil {
		return scoring{}, nil, fmt.Errorf("core: LRF-CSVM coupled training: %w", err)
	}
	lane.handOff(coupled.Models[0], labels)
	vm, lm := coupled.Models[0], coupled.Models[1]
	seeds := seedBlock{rows: lane.seeds, score: seedScorer(ctx, batch, vm, lm)}
	return scoring{batch: batch, fn: retrievalScorer(ctx, batch, vm, lm, lane), seeds: seeds, lane: lane}, coupled, nil
}

// RankTop implements Scheme: steps 1-2 run exactly as in Rank, and the
// final retrieval pass streams through per-shard bounded selection like the
// unlabeled selection of step 1 does.
func (s LRFCSVM) RankTop(ctx *QueryContext, k int) ([]Ranked, error) {
	return s.RankTopAppend(ctx, k, nil)
}

// RankTopAppend implements Scheme.
func (s LRFCSVM) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, CandidateSet{}, k, dst)
}

// BoundarySelection is an alternative unlabeled-selection strategy used by
// the ablation benchmarks: it drafts the images closest to the current
// decision boundary (smallest |combined score|), the active-learning
// heuristic the paper reports as not working well for this task.
func BoundarySelection(candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	abs := make([]float64, len(candidates))
	for i, idx := range candidates {
		v := combined[idx]
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	order := linalg.ArgsortAsc(abs)
	for i := 0; i < num; i++ {
		idx := candidates[order[i]]
		indices = append(indices, idx)
		if combined[idx] >= 0 {
			initialLabels = append(initialLabels, 1)
		} else {
			initialLabels = append(initialLabels, -1)
		}
	}
	return indices, initialLabels
}

// RandomSelection drafts num random unlabeled candidates with initial labels
// taken from the sign of the combined score. Used by ablation benchmarks.
func RandomSelection(rng *linalg.RNG, candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	perm := rng.Perm(len(candidates))
	for i := 0; i < num; i++ {
		idx := candidates[perm[i]]
		indices = append(indices, idx)
		if combined[idx] >= 0 {
			initialLabels = append(initialLabels, 1)
		} else {
			initialLabels = append(initialLabels, -1)
		}
	}
	return indices, initialLabels
}

// SelectionStrategy names an unlabeled-selection heuristic for the
// configurable variant used in ablations.
type SelectionStrategy int

// Selection strategies.
const (
	// SelectLogAssisted is the default strategy: the presumed-positive half
	// is drawn from the log-covered images with the highest combined score,
	// the presumed-negative half from the global minimum (see
	// unlabeledSelector).
	SelectLogAssisted SelectionStrategy = iota
	// SelectMaxMin is the purely score-driven variant of the paper's
	// pseudocode: half closest to the positive data, half closest to the
	// negative data, regardless of log coverage (selectMaxMin).
	SelectMaxMin
	// SelectBoundary drafts images nearest the decision boundary.
	SelectBoundary
	// SelectRandom drafts images uniformly at random.
	SelectRandom
)

// String returns the strategy name.
func (s SelectionStrategy) String() string {
	switch s {
	case SelectLogAssisted:
		return "log-assisted"
	case SelectMaxMin:
		return "max-min"
	case SelectBoundary:
		return "boundary"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("SelectionStrategy(%d)", int(s))
	}
}

// LRFCSVMWithSelection is LRFCSVM with a configurable unlabeled-selection
// strategy; it exists for the ablation study comparing the paper's max/min
// heuristic against boundary-based active selection and random drafting.
type LRFCSVMWithSelection struct {
	Params     CSVMParams
	Strategy   SelectionStrategy
	RandomSeed uint64
}

// Name implements Scheme.
func (s LRFCSVMWithSelection) Name() string {
	return fmt.Sprintf("LRF-CSVM[%s]", s.Strategy)
}

// scorer implements rangeScored: the shared three steps with this variant's
// step-1 heuristic.
func (s LRFCSVMWithSelection) scorer(ctx *QueryContext) (scoring, error) {
	final, _, err := trainCSVM(ctx, s.Params, s.selection())
	return final, err
}

// Rank implements Scheme.
func (s LRFCSVMWithSelection) Rank(ctx *QueryContext) ([]float64, error) { return rankScores(s, ctx) }

// RankTop implements Scheme.
func (s LRFCSVMWithSelection) RankTop(ctx *QueryContext, k int) ([]Ranked, error) {
	return s.RankTopAppend(ctx, k, nil)
}

// RankTopAppend implements Scheme.
func (s LRFCSVMWithSelection) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, CandidateSet{}, k, dst)
}

// selection resolves the strategy to a step-1 heuristic. Boundary and random
// rank every unlabeled image, so they materialize the full combined scores,
// without the lane; they run in the evaluation harness only.
func (s LRFCSVMWithSelection) selection() unlabeledSelection {
	var pick func(candidates []int, combined []float64, num int) ([]int, []float64)
	switch s.Strategy {
	case SelectMaxMin:
		return selectMaxMin
	case SelectBoundary:
		pick = BoundarySelection
	case SelectRandom:
		pick = func(candidates []int, combined []float64, num int) ([]int, []float64) {
			return RandomSelection(linalg.NewRNG(s.RandomSeed), candidates, combined, num)
		}
	default:
		return selectLogAssisted
	}
	return func(ctx *QueryContext, batch *CollectionBatch, visualInit, logInit *svm.Model, num int, _ *stepLane) ([]int, []float64, error) {
		combined, err := scanScores(ctx, batch, coupledScorer(ctx, visualInit, logInit, nil, kernel.PositiveSums{}))
		if err != nil {
			return nil, nil, err
		}
		labeledSet := ctx.labeledSet()
		candidates := make([]int, 0, ctx.NumImages())
		for i := 0; i < ctx.NumImages(); i++ {
			if !labeledSet[i] {
				candidates = append(candidates, i)
			}
		}
		indices, initialLabels := pick(candidates, combined, num)
		return indices, initialLabels, nil
	}
}

// Ensure the schemes satisfy the Scheme interface.
var (
	_ Scheme = Euclidean{}
	_ Scheme = RFSVM{}
	_ Scheme = LRF2SVMs{}
	_ Scheme = LRFCSVM{}
	_ Scheme = LRFCSVMWithSelection{}
)
