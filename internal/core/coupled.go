package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/svm"
)

// Modality is one view of the data for the coupled SVM: its kernel, its
// soft-margin cost and the representation of every labeled and unlabeled
// training point in that view. The paper couples two modalities — low-level
// visual content and the user-feedback log — but the formulation (and this
// implementation) generalizes to any number of views.
type Modality struct {
	// Name is used in error messages and diagnostics.
	Name string
	// Kernel is the Mercer kernel for this view.
	Kernel kernel.Kernel
	// C is the soft-margin cost applied to labeled points in this view
	// (C_w and C_u in Eq. 1 of the paper). Unlabeled points are weighted
	// rho*C during the annealing schedule.
	C float64
	// Labeled and Unlabeled hold the per-point representations in this view.
	Labeled   []kernel.Point
	Unlabeled []kernel.Point
}

// CoupledConfig controls the alternating optimization of the coupled SVM.
// Zero or negative Rho and Delta select LRF-CSVM's defaults
// (CSVMParams.withDefaults); TrainCoupled rejects NaN and infinities.
type CoupledConfig struct {
	// Rho is the final weight ceiling of the unlabeled points relative to C;
	// the weight starts at rhoInit and doubles every outer iteration until it
	// reaches Rho, as in transductive SVMs.
	Rho float64
	// Delta is the label-correction threshold ("degree of error" control in
	// Fig. 1): an unlabeled point's label is only flipped when flipping it
	// reduces the summed, cost-weighted hinge loss across the modalities by
	// more than Delta. Larger values make label correction more
	// conservative and avoid overlarge changes to the label set.
	Delta float64
	// Workers is read by nothing: the modalities of an alternation step train
	// one after the other, which measured faster than handing one of them to
	// a goroutine (EXPERIMENTS.md "PR 28"). The field stays only because the
	// benchmark sets it (bench/trace.go:254) and this PR could not edit
	// bench/; it is deleted by ROADMAP item 2 (a).
	Workers int
	// Ctx optionally carries the caller's cancellation context to every
	// retraining's solver: cancelling the query cancels its training too.
	Ctx context.Context
}

const (
	// rhoInit is the initial weight of the unlabeled points relative to C
	// (the paper starts at 1e-4 to avoid early dominance of unlabeled data).
	rhoInit = 1e-4
	// maxCorrectionIters bounds the inner label-correction loop of each
	// annealing step so that oscillating flips cannot spin forever.
	maxCorrectionIters = 10
)

// CoupledResult is the outcome of the coupled SVM's alternating optimization.
type CoupledResult struct {
	// Models holds the trained decision function of every modality, in the
	// order the modalities were given.
	Models []*svm.Model
	// UnlabeledLabels holds the final inferred labels Y' of the unlabeled
	// points.
	UnlabeledLabels []float64
	// Flips counts individual label corrections applied to unlabeled points.
	Flips int
	// Retrainings counts SVM training runs per modality pair performed by
	// the alternating optimization (including the correction loop).
	Retrainings int
	// RhoSteps counts outer annealing iterations.
	RhoSteps int
	// SolverIterations totals the SMO pair updates across every retraining
	// — the training-cost diagnostic the benchmark reports as
	// core.solver_iterations.
	SolverIterations int
}

// TrainCoupled runs the coupled SVM of Section 4 of the paper: it learns one
// SVM per modality such that all modalities agree on the labels of the
// unlabeled points, using the two-step alternating optimization with an
// annealed unlabeled weight rho* and threshold-guarded label correction
// (Fig. 1, step 2).
//
// labels are the ground-truth labels of the labeled points (+-1, shared by
// every modality); initialUnlabeled are the starting labels Y' of the
// unlabeled points (+-1), typically produced by the unlabeled-selection
// heuristic of the practical algorithm.
func TrainCoupled(modalities []Modality, labels []float64, initialUnlabeled []float64, cfg CoupledConfig) (*CoupledResult, error) {
	if len(modalities) == 0 {
		return nil, errors.New("core: coupled SVM needs at least one modality")
	}
	nl := len(labels)
	nu := len(initialUnlabeled)
	if nl == 0 {
		return nil, errors.New("core: coupled SVM needs labeled points")
	}
	for _, y := range labels {
		if y != 1 && y != -1 {
			return nil, fmt.Errorf("core: labeled point has label %v, want +1 or -1", y)
		}
	}
	for _, y := range initialUnlabeled {
		if y != 1 && y != -1 {
			return nil, fmt.Errorf("core: unlabeled point has initial label %v, want +1 or -1", y)
		}
	}
	for _, m := range modalities {
		if m.Kernel == nil {
			return nil, fmt.Errorf("core: modality %q has no kernel", m.Name)
		}
		if !(m.C > 0) || math.IsInf(m.C, 0) {
			return nil, fmt.Errorf("core: modality %q has cost %v, want a positive finite value", m.Name, m.C)
		}
		if len(m.Labeled) != nl {
			return nil, fmt.Errorf("core: modality %q has %d labeled points, want %d", m.Name, len(m.Labeled), nl)
		}
		if len(m.Unlabeled) != nu {
			return nil, fmt.Errorf("core: modality %q has %d unlabeled points, want %d", m.Name, len(m.Unlabeled), nu)
		}
	}
	// The schedule multiplies into the costs the retrainings hand the solver
	// under TrustedProblem, and NaN slips through withDefaults (NaN <= 0 is
	// false), so it is refused here like a non-finite C.
	for _, v := range [...]float64{cfg.Rho, cfg.Delta} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: coupled schedule has Rho %v, Delta %v, want finite values", cfg.Rho, cfg.Delta)
		}
	}
	// A direct caller's zero Rho and Delta are LRF-CSVM's.
	cfg = CSVMParams{Coupled: cfg}.withDefaults().Coupled

	result := &CoupledResult{
		Models:          make([]*svm.Model, len(modalities)),
		UnlabeledLabels: append([]float64(nil), initialUnlabeled...),
	}

	// With no unlabeled points the coupled SVM degenerates to independent
	// per-modality SVMs on the labeled data.
	if nu == 0 {
		for m, mod := range modalities {
			model, err := trainModality(cfg.Ctx, mod.Labeled, labels, mod.C, mod.Kernel)
			if err != nil {
				return nil, fmt.Errorf("core: modality %q: %w", mod.Name, err)
			}
			result.Models[m] = model
		}
		result.Retrainings += len(modalities)
		result.tallySolverStats()
		return result, nil
	}

	// The alternating optimization retrains every modality many times —
	// once per annealing step times once per label-correction pass — but
	// always over the same point set: only the labels and costs change.
	// Kernel values depend on neither, so each modality gets one shared,
	// read-through kernel row cache that every retraining reuses, and the
	// per-problem point/label/cost buffers and the unlabeled decision
	// values are built once and patched in place. Every retraining starts
	// the solver from zero, so a model depends only on the labels and costs
	// it was trained with, never on the path the schedule took to them.
	points := make([][]kernel.Point, len(modalities))
	ys := make([]float64, nl+nu)
	costs := make([][]float64, len(modalities))
	caches := make([]*kernel.Cache, len(modalities))
	decisions := make([][]float64, len(modalities))
	copy(ys[:nl], labels)
	for m, mod := range modalities {
		points[m] = make([]kernel.Point, 0, nl+nu)
		points[m] = append(points[m], mod.Labeled...)
		points[m] = append(points[m], mod.Unlabeled...)
		costs[m] = make([]float64, nl+nu)
		for i := 0; i < nl; i++ {
			costs[m][i] = mod.C
		}
		caches[m] = kernel.NewCache(mod.Kernel, points[m])
		decisions[m] = make([]float64, nu)
	}

	// trainAll trains every modality on labeled + unlabeled points with the
	// current Y' and per-sample costs (C for labeled, rho*C for unlabeled)
	// and refreshes, per modality, the decision value of every unlabeled
	// point.
	trainAll := func(rho float64) error {
		copy(ys[nl:], result.UnlabeledLabels)
		for m, mod := range modalities {
			for i := 0; i < nu; i++ {
				costs[m][nl+i] = rho * mod.C
			}
		}
		for m, mod := range modalities {
			cfgSolver := svm.Config{
				Kernel:      mod.Kernel,
				SharedCache: caches[m],
				// Most models of the alternating optimization are discarded
				// after updateLabels reads their alphas; the final ones are
				// expanded just before TrainCoupled returns.
				OmitSupportVectors: true,
				// The problem is the validated template patched in place:
				// labels stay in {-1,+1} (entry checks + updateLabels sign
				// flips) and costs stay positive finite (rho schedule times
				// an entry-checked C), so skip per-retrain revalidation.
				TrustedProblem: true,
				Ctx:            cfg.Ctx,
			}
			model, err := svm.Train(svm.Problem{Points: points[m], Labels: ys, C: costs[m]}, cfgSolver)
			if err != nil {
				return fmt.Errorf("core: modality %q: %w", mod.Name, err)
			}
			result.Models[m] = model
			decisionsFromCache(model, caches[m], ys, nl, decisions[m])
		}
		result.Retrainings += len(modalities)
		result.tallySolverStats()
		return nil
	}

	// updateLabels performs the second AO step of Section 4.2: with the
	// decision functions fixed, choose each unlabeled label y'_j to minimize
	// the summed cost-weighted hinge loss across modalities. A label only
	// changes when the loss reduction exceeds Delta (the Fig. 1 guard
	// against overlarge changes to the label set), which also makes the
	// alternation monotone and convergent rather than oscillating.
	updateLabels := func() int {
		changed := 0
		for i := 0; i < nu; i++ {
			current := result.UnlabeledLabels[i]
			lossCur, lossFlip := 0.0, 0.0
			for m := range modalities {
				lossCur += modalities[m].C * hinge(current*decisions[m][i])
				lossFlip += modalities[m].C * hinge(-current*decisions[m][i])
			}
			if lossCur-lossFlip > cfg.Delta {
				result.UnlabeledLabels[i] = -current
				changed++
			}
		}
		result.Flips += changed
		return changed
	}

	// Annealing schedule: rho* starts small and doubles until it reaches the
	// ceiling, mirroring the transductive SVM schedule the paper adopts.
	// Each step alternates (train SVMs | update Y') until the label set is
	// stable or the iteration bound is hit.
	for rho := rhoInit; rho < cfg.Rho; rho = min(2*rho, cfg.Rho) {
		result.RhoSteps++
		if err := trainAll(rho); err != nil {
			return nil, err
		}
		for iter := 0; iter < maxCorrectionIters; iter++ {
			if updateLabels() == 0 {
				break
			}
			if err := trainAll(rho); err != nil {
				return nil, err
			}
		}
	}
	// Final pass at the full weight rho, again alternating until stable.
	result.RhoSteps++
	if err := trainAll(cfg.Rho); err != nil {
		return nil, err
	}
	for iter := 0; iter < maxCorrectionIters; iter++ {
		if updateLabels() == 0 {
			break
		}
		if err := trainAll(cfg.Rho); err != nil {
			return nil, err
		}
	}
	// Only the final models are kept by callers; expand the
	// support-vector lists the intermediate retrainings skipped. ys still
	// holds the labels of the last training run, which is what the
	// expansion must see even when a trailing correction pass flipped
	// labels without retraining.
	for m := range result.Models {
		result.Models[m].ExpandSupport(points[m], ys)
	}
	return result, nil
}

// decisionsFromCache fills dec[i] with the decision value of training point
// nl+i — the unlabeled points the label-correction step inspects — from the
// already-cached kernel rows of the training problem:
// f(x_t) = b + sum_j alpha_j y_j K(x_j, x_t). Every support vector's row was
// fetched during training (training starts from alpha = 0, so a pair update
// touched it), so this costs zero kernel evaluations, where Model.DecisionBatch
// would re-evaluate every (support vector, unlabeled) pair each retraining.
// The summation order (ascending j over alpha_j > 0, bias first) and every
// operand match DecisionBatch over the same points, so the values — and
// therefore the default-config rankings — are bit-identical.
func decisionsFromCache(model *svm.Model, cache *kernel.Cache, ys []float64, nl int, dec []float64) {
	for i := range dec {
		dec[i] = model.Bias
	}
	for j, a := range model.Alphas {
		if a == 0 {
			continue
		}
		row := cache.Row(j)[nl:]
		row = row[:len(dec)]
		c := a * ys[j]
		for i := range dec {
			dec[i] += c * row[i]
		}
	}
}

// tallySolverStats accumulates the per-model solver diagnostics of the most
// recent training round into the result's totals.
func (r *CoupledResult) tallySolverStats() {
	for _, m := range r.Models {
		if m != nil {
			r.SolverIterations += m.Iterations
		}
	}
}

// hinge is the hinge loss max(0, 1-margin).
func hinge(margin float64) float64 {
	if margin >= 1 {
		return 0
	}
	return 1 - margin
}
