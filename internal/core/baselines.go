package core

import (
	"fmt"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// Euclidean is the reference scheme of the paper's figures: images are
// ranked by (negative) Euclidean distance between their visual descriptor
// and the query's descriptor; user feedback is ignored.
type Euclidean struct{}

// Name implements Scheme.
func (Euclidean) Name() string { return "Euclidean" }

// scorer implements rangeScored. Euclidean ranking ignores user feedback, so
// unlike the learning schemes it does not require any labeled examples in
// the context.
func (Euclidean) scorer(ctx *QueryContext) (scoring, error) {
	if err := ctx.validateQuery(); err != nil {
		return scoring{}, err
	}
	b := ctx.collectionBatch()
	q := b.queryVector(ctx)
	return scoring{batch: b, fn: func(_ *rankScratch, sub *kernel.DenseSet, _ int, dst []float64) {
		rangeDistances(q, sub, dst)
		for i := range dst {
			dst[i] = -dst[i]
		}
	}}, nil
}

// Rank implements Scheme.
func (s Euclidean) Rank(ctx *QueryContext) ([]float64, error) { return rankScores(s, ctx) }

// RankTop is RankTopAppend onto nil: per-shard distances are computed into a
// pooled scratch lane and pushed through bounded selection, so no
// collection-sized slice is materialized.
func (s Euclidean) RankTop(ctx *QueryContext, k int) ([]Ranked, error) {
	return s.RankTopAppend(ctx, k, nil)
}

// RankTopAppend implements Scheme.
func (s Euclidean) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, CandidateSet{}, k, dst)
}

// gammaSample is the subsample size used by the RBF bandwidth heuristic.
const gammaSample = 64

// visualGammaScale multiplies the mean-distance bandwidth estimate for the
// visual modality. The top of a retrieval ranking is decided in the local
// neighborhood of the labeled examples, so a kernel somewhat sharper than
// the global mean-distance heuristic ranks better; the factor was selected
// on a held-out synthetic collection (EXPERIMENTS.md "MAP reference values"
// holds the MAPs measured with it).
const visualGammaScale = 4

// defaultLogKernel is the kernel used over user-log relevance vectors: the
// linear co-judgment kernel <r_i, r_j>, which counts agreeing minus
// disagreeing session judgments. The paper uses an RBF kernel for all
// schemes, but over near-binary sparse log columns the RBF compresses every
// similarity toward one and erases most of the log signal; the linear
// kernel preserves it (the log-kernel ablation benchmark compares the two).
var defaultLogKernel kernel.Kernel = kernel.Linear{}

// LogRBFKernel estimates an RBF kernel over the log columns of the first n
// images of the log index with the mean-distance heuristic (restricted to
// log-covered images). It is the paper's literal kernel choice for the log
// modality and is exercised by the log-kernel ablation benchmark.
func LogRBFKernel(log *kernel.LogIndex, n int) kernel.Kernel {
	var cols []sparse.Vector
	for i := range n {
		if log.Covered(i) {
			cols = append(cols, log.Column(i))
		}
	}
	return kernel.RBF{Gamma: kernel.EstimateRBFGamma(len(cols), func(i int) kernel.Point { return kernel.NewSparse(&cols[i]) }, gammaSample)}
}

// svmCost is the soft-margin cost of a labeled example in every SVM-based
// scheme and in both modalities (C of RF-SVM and LRF-2SVMs, C_w and C_u of
// Eq. 1). The paper does not report its choice; no table, sweep or program of
// the reproduction has run another value.
const svmCost = 1

// queryPriorWeight is the weight of the initial-similarity prior added to
// every SVM-based ranking. Images far from all support vectors receive a
// near-constant decision value under a local RBF kernel, which would leave
// their relative order arbitrary; adding a small multiple of the negative
// Euclidean distance to the query breaks those ties by the initial visual
// similarity, exactly as an interactive retrieval system would. The weight
// is small enough not to override any decision-value difference of
// practical magnitude. It is applied identically to RF-SVM, LRF-2SVMs and
// LRF-CSVM, so scheme comparisons stay fair.
const queryPriorWeight = 0.02

// RFSVM is the paper's regular relevance-feedback baseline: a single SVM
// trained on the labeled visual descriptors of the current round; images are
// ranked by the SVM decision value.
type RFSVM struct{}

// Name implements Scheme.
func (RFSVM) Name() string { return "RF-SVM" }

// train trains the round's visual SVM in the arena.
func (RFSVM) train(ctx *QueryContext, batch *CollectionBatch, a *trainArena) (*svm.Model, error) {
	indices, labels := a.labeledSplit(ctx)
	a.points[0] = a.visualPoints(batch, indices, a.points[0])
	s, err := a.trainModality(0, ctx.Ctx, a.points[0], labels, svmCost, batch.defaultVisualKernel())
	if err != nil {
		return nil, fmt.Errorf("core: RF-SVM training: %w", err)
	}
	return s.ModelInto(a.model(0)), nil
}

// scorer implements rangeScored: the round's model, trained in an arena of
// the batch's, plus the query prior.
func (s RFSVM) scorer(ctx *QueryContext) (scoring, error) {
	if err := ctx.Validate(false); err != nil {
		return scoring{}, err
	}
	batch := ctx.collectionBatch()
	a := batch.trainerGet()
	model, err := s.train(ctx, batch, a)
	if err != nil {
		return scoring{batch: batch, arena: a}, err
	}
	return scoring{batch: batch, fn: visualScorer(ctx, batch, model), arena: a}, nil
}

// Rank implements Scheme.
func (s RFSVM) Rank(ctx *QueryContext) ([]float64, error) { return rankScores(s, ctx) }

// RankTopAppend implements Scheme: the same trained model as Rank, scored
// through streaming per-shard selection.
func (s RFSVM) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, CandidateSet{}, k, dst)
}

// LRF2SVMs is the "straightforward" log-based relevance feedback approach the
// paper compares against: two SVMs are trained independently — one on the
// labeled visual descriptors and one on the labeled log vectors — and each
// image is scored by the sum of the two decision values.
type LRF2SVMs struct {
	// LogKernel is the kernel over user-log vectors; nil selects the linear
	// co-judgment kernel (defaultLogKernel).
	LogKernel kernel.Kernel
}

// Name implements Scheme.
func (LRF2SVMs) Name() string { return "LRF-2SVMs" }

// train trains the round's two independent per-modality SVMs in the
// arena's first two solver slots, over its labeled points (points[0] and
// points[1]).
func (s LRF2SVMs) train(ctx *QueryContext, batch *CollectionBatch, a *trainArena) (visual, log *svm.Solver, err error) {
	logKernel := s.LogKernel
	if logKernel == nil {
		logKernel = defaultLogKernel
	}
	indices, labels := a.labeledSplit(ctx)
	a.points[0] = a.visualPoints(batch, indices, a.points[0])
	visual, err = a.trainModality(0, ctx.Ctx, a.points[0], labels, svmCost, batch.defaultVisualKernel())
	if err != nil {
		return nil, nil, fmt.Errorf("core: LRF-2SVMs visual training: %w", err)
	}
	a.points[1] = a.logPoints(ctx, indices, a.points[1])
	log, err = a.trainModality(1, ctx.Ctx, a.points[1], labels, svmCost, logKernel)
	if err != nil {
		return nil, nil, fmt.Errorf("core: LRF-2SVMs log training: %w", err)
	}
	return visual, log, nil
}

// scorer implements rangeScored: the round's model pair, trained in an
// arena of the batch's, plus the query prior, a top-K pass starting from the
// rows the log vouches for.
func (s LRF2SVMs) scorer(ctx *QueryContext) (scoring, error) {
	ctx, err := ctx.validated(true)
	if err != nil {
		return scoring{}, err
	}
	batch := ctx.collectionBatch()
	a := batch.trainerGet()
	visual, log, err := s.train(ctx, batch, a)
	if err != nil {
		return scoring{batch: batch, arena: a}, err
	}
	pass := twoSVMsScoring(ctx, batch, visual.ModelInto(a.model(0)), log.ModelInto(a.model(1)))
	pass.arena = a
	return pass, nil
}

// twoSVMsScoring is LRF-2SVMs' retrieval pass with the model pair: a
// top-K pass is seeded by the judged positives and the images the log
// judged relevant beside them (vouchedSeeds).
func twoSVMsScoring(ctx *QueryContext, batch *CollectionBatch, visualModel, logModel *svm.Model) scoring {
	seeds := seedBlock{log: ctx.LogIndex, labeled: ctx.Labeled, score: seedScorer(ctx, batch, visualModel, logModel)}
	return scoring{batch: batch, fn: retrievalScorer(ctx, batch, visualModel, logModel, kernel.PositiveSums{}), seeds: seeds}
}

// Rank implements Scheme.
func (s LRF2SVMs) Rank(ctx *QueryContext) ([]float64, error) { return rankScores(s, ctx) }

// RankTopAppend implements Scheme: the same trained models as Rank, scored
// through streaming per-shard selection.
func (s LRF2SVMs) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, CandidateSet{}, k, dst)
}

// Pretrained2SVMs is one round's trained LRF-2SVMs model pair, split out so
// the pure ranking stage can be measured and regression-tested in isolation:
// an end-to-end round also trains, which hides the scoring pass on small
// collections (ROADMAP has the trainer's share of a refine per collection
// size), while on the isolated ranking stage its time and allocations are
// measurable.
type Pretrained2SVMs struct {
	visualModel, logModel *svm.Model
}

// Pretrain runs only the training stage of one LRF-2SVMs round and returns
// the model pair for repeated ranking, trained in an arena of its own.
func (s LRF2SVMs) Pretrain(ctx *QueryContext) (*Pretrained2SVMs, error) {
	ctx, err := ctx.validated(true)
	if err != nil {
		return nil, err
	}
	visual, log, err := s.train(ctx, ctx.collectionBatch(), new(trainArena))
	if err != nil {
		return nil, err
	}
	return &Pretrained2SVMs{visualModel: visual.Model(), logModel: log.Model()}, nil
}

// scorer implements rangeScored with exactly the post-training arithmetic of
// LRF2SVMs.
func (p *Pretrained2SVMs) scorer(ctx *QueryContext) (scoring, error) {
	ctx, err := ctx.validated(true)
	if err != nil {
		return scoring{}, err
	}
	return twoSVMsScoring(ctx, ctx.collectionBatch(), p.visualModel, p.logModel), nil
}

// RankTopAppend streams the top k with the pretrained pair.
func (p *Pretrained2SVMs) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(p, ctx, CandidateSet{}, k, dst)
}
