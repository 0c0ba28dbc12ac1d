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
	// benchmark sets it (bench/trace.go:254); it goes once bench/ stops
	// setting it.
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
	// A missing kernel leaves a nil solver, which trainCoupled refuses first.
	labeled := make([]*svm.Solver, len(modalities))
	for m, mod := range modalities {
		labeled[m], _ = svm.NewSolver(mod.Labeled, svm.Config{Kernel: mod.Kernel, Ctx: cfg.Ctx})
	}
	return trainCoupled(modalities, labels, initialUnlabeled, cfg, labeled)
}

// trainCoupled is TrainCoupled through labeled[m], a solver over modality m's
// labeled points under its kernel and cfg.Ctx, grown by the unlabeled ones.
// One that filled its Gram matrix (LRF-CSVM's step 1) saves those entries;
// the result is the same bits either way.
func trainCoupled(modalities []Modality, labels, initialUnlabeled []float64, cfg CoupledConfig, labeled []*svm.Solver) (*CoupledResult, error) {
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
	// A NaN slips through withDefaults (NaN <= 0 is false) and would reach
	// every retraining's costs, where the solver refuses it; refusing it
	// here names the schedule instead.
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

	// The alternating optimization retrains every modality many times —
	// once per annealing step times once per label-correction pass — but
	// always over the same point set: only the labels and costs change. So
	// each modality gets one svm.Solver over its labeled then unlabeled
	// points, which keeps its Gram matrix and working arrays across every
	// retraining, and the label and cost buffers and the unlabeled decision
	// values are built once and patched in place. Every Solve starts from
	// zero, so a model depends only on the labels and costs it was trained
	// with, never on the path the schedule took to them.
	solvers := make([]*svm.Solver, len(modalities))
	ys := make([]float64, nl+nu)
	costs := make([][]float64, len(modalities))
	decisions := make([][]float64, len(modalities))
	copy(ys[:nl], labels)
	for m, mod := range modalities {
		solvers[m] = labeled[m].Grow(mod.Unlabeled)
		costs[m] = make([]float64, nl+nu)
		for i := 0; i < nl; i++ {
			costs[m][i] = mod.C
		}
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
			if err := solvers[m].Solve(ys, costs[m]); err != nil {
				return fmt.Errorf("core: modality %q: %w", mod.Name, err)
			}
			result.SolverIterations += solvers[m].Iterations()
			solvers[m].Decisions(nl, decisions[m])
		}
		result.Retrainings += len(modalities)
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
				d := decisions[m][i]
				lossCur += float64(modalities[m].C * hinge(float64(current*d)))
				lossFlip += float64(modalities[m].C * hinge(float64(-current*d)))
			}
			if lossCur-lossFlip > cfg.Delta {
				result.UnlabeledLabels[i] = -current
				changed++
			}
		}
		result.Flips += changed
		return changed
	}

	if nu == 0 {
		// With no unlabeled points the coupled SVM degenerates to independent
		// per-modality SVMs on the labeled data: one training, no schedule.
		if err := trainAll(cfg.Rho); err != nil {
			return nil, err
		}
	} else {
		// Annealing schedule: rho* starts small and doubles until it reaches
		// the ceiling, mirroring the transductive SVM schedule the paper
		// adopts; the last step runs at the ceiling itself. Each step
		// alternates (train SVMs | update Y') until the label set is stable
		// or the iteration bound is hit.
		for rho := min(rhoInit, cfg.Rho); ; rho = min(2*rho, cfg.Rho) {
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
			if rho >= cfg.Rho {
				break
			}
		}
	}
	// Only the final models are kept by callers, so the support vectors are
	// expanded once per modality, from its solver's latest Solve.
	for m := range result.Models {
		result.Models[m] = solvers[m].Model()
	}
	return result, nil
}

// hinge is the hinge loss max(0, 1-margin).
func hinge(margin float64) float64 {
	if margin >= 1 {
		return 0
	}
	return 1 - margin
}
