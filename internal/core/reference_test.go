package core

import (
	"fmt"
	"math"
	"slices"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// This file is the reference refine: what every scheme computes, written
// straight — one image at a time, every score kept, one sort — from one-row
// primitives whose batched forms TestKernelsMatchReference holds to their
// definitions. The served schemes shard the collection, stream bounded
// selections, grow solvers and share Gram entries; TestRefineMatchesReference
// holds each of them to this file, Float64bits.
//
// A scanned row's score is the contract's: the visual decision value is
// svm.Model.DecisionSet over a one-row set (the tile's arithmetic: the norm
// expansion, not RBF.Eval's direct distance, then expOne, as in Eval), the log
// decision value logDecision (a linear model scored by its weight vector, not
// svm.Model.Decision's per-support-vector sum), and the query prior −0.02·√
// of a one-row SquaredDistancesInto.

// refScheme names a scheme for the reference: Euclidean, RF-SVM, LRF-2SVMs
// or LRF-CSVM with its parameters, step 1's heuristic included.
type refScheme struct {
	name   string
	params CSVMParams
}

// refResult is what the reference computes for one query: every image's
// score, and for LRF-CSVM the drafted images, their initial labels and the
// coupled result.
type refResult struct {
	scores  []float64
	drafted []int
	initial []float64
	coupled *CoupledResult
}

// refTop is the top k of scores among the images member admits (nil: all),
// by one sort on (score descending, index ascending).
func refTop(scores []float64, member func(int) bool, k int) []Ranked {
	var all []Ranked
	for i, s := range scores {
		if member == nil || member(i) {
			all = append(all, Ranked{Index: i, Score: s})
		}
	}
	slices.SortFunc(all, func(a, b Ranked) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	return all[:max(0, min(k, len(all)))]
}

func oneRow(x linalg.Vector) *kernel.DenseSet { return kernel.NewDenseSet([]linalg.Vector{x}) }

// visualDecision is a visual model's decision value on one scanned row.
func visualDecision(m *svm.Model, x linalg.Vector) float64 {
	dst := make([]float64, 1)
	m.DecisionSet(oneRow(x), dst, nil)
	return dst[0]
}

// logDecision is a log model's decision value on one image's log column y.
// A linear model is scored by its weight vector w over sessions: w_s sums
// float64(c_t·v_ts) over the support vectors t that carry session s, in
// ascending t from +0, and the score is the bias plus float64(w_s·y_s) over
// y's sessions that some support vector carries, ascending. Another kernel
// is svm.Model.Decision.
func logDecision(m *svm.Model, y *sparse.Vector) float64 {
	if _, linear := m.Kernel.(kernel.Linear); !linear {
		return m.Decision(kernel.NewSparse(y))
	}
	w, carried := make([]float64, y.Dim), make([]bool, y.Dim)
	for t, sv := range m.SupportPoints {
		for _, e := range sv.(kernel.Sparse).Entries {
			w[e.Index] += float64(m.Coefficients[t] * e.Value)
			carried[e.Index] = true
		}
	}
	sum := m.Bias
	for _, e := range y.Entries {
		if carried[e.Index] {
			sum += float64(w[e.Index] * e.Value)
		}
	}
	return sum
}

// queryDistance is one row's Euclidean distance to the query, what
// Euclidean negates and the other schemes' prior weighs.
func queryDistance(q, x linalg.Vector) float64 {
	d := make([]float64, 1)
	oneRow(x).SquaredDistancesInto(d, q)
	return math.Sqrt(d[0])
}

// refTrain is one fresh SVM training.
func refTrain(points []kernel.Point, labels, costs []float64, k kernel.Kernel) (*svm.Model, error) {
	return svm.Train(svm.Problem{Points: points, Labels: labels, C: costs}, svm.Config{Kernel: k})
}

func costsOf(n int, c float64) []float64 { return slices.Repeat([]float64{c}, n) }

// referenceRefine ranks the collection of ctx.Visual (ctx.Batch is not read)
// for ctx's query and judgments under s.
func referenceRefine(ctx *QueryContext, s refScheme) (*refResult, error) {
	visual, logs, n := ctx.Visual, ctx.LogVectors, len(ctx.Visual)
	q := visual[ctx.Query]
	res := &refResult{scores: make([]float64, n)}
	if s.name == "Euclidean" {
		for i, x := range visual {
			res.scores[i] = -queryDistance(q, x)
		}
		return res, nil
	}
	vk := kernel.RBF{Gamma: visualGammaScale * kernel.EstimateRBFGamma(n, func(i int) kernel.Point { return kernel.Dense(visual[i]) }, gammaSample)}
	p := s.params.withDefaults()
	var labels []float64
	var visPts, logPts []kernel.Point
	for _, ex := range ctx.Labeled {
		labels = append(labels, ex.Label)
		visPts = append(visPts, kernel.Dense(visual[ex.Index]))
		logPts = append(logPts, kernel.NewSparse(logs[ex.Index]))
	}
	vm, err := refTrain(visPts, labels, costsOf(len(labels), svmCost), vk)
	if err != nil {
		return nil, err
	}
	if s.name == "RF-SVM" {
		for i, x := range visual {
			res.scores[i] = visualDecision(vm, x) - float64(queryPriorWeight*queryDistance(q, x))
		}
		return res, nil
	}
	lm, err := refTrain(logPts, labels, costsOf(len(labels), svmCost), p.LogKernel)
	if err != nil {
		return nil, err
	}
	if s.name == "LRF-CSVM" {
		// Step 1: the two models' summed decision value drafts N' images.
		combined := make([]float64, n)
		for i, x := range visual {
			combined[i] = visualDecision(vm, x) + logDecision(lm, logs[i])
		}
		res.drafted, res.initial = refSelect(ctx, s, combined, p.NumUnlabeled)
		// Step 2: the coupled SVM over the labeled and drafted points.
		var visU, logU []kernel.Point
		for _, i := range res.drafted {
			visU = append(visU, kernel.Dense(visual[i]))
			logU = append(logU, kernel.NewSparse(logs[i]))
		}
		mods := []Modality{
			{Kernel: vk, C: svmCost, Labeled: visPts, Unlabeled: visU},
			{Kernel: p.LogKernel, C: svmCost, Labeled: logPts, Unlabeled: logU},
		}
		if res.coupled, err = refCoupled(mods, labels, res.initial, p.Coupled); err != nil {
			return nil, err
		}
		vm, lm = res.coupled.Models[0], res.coupled.Models[1]
	}
	// Step 3 (and LRF-2SVMs): the summed decision value plus the prior.
	for i, x := range visual {
		res.scores[i] = visualDecision(vm, x) + logDecision(lm, logs[i]) - float64(queryPriorWeight*queryDistance(q, x))
	}
	return res, nil
}

// refSelect is step 1's heuristic over every unlabeled image's combined
// score: the log-assisted one and max-min through select-by-sort
// (logAssistedSelection, max-min over a log that covers no image), the other
// ablation ones through the heuristics themselves.
func refSelect(ctx *QueryContext, s refScheme, combined []float64, num int) ([]int, []float64) {
	var candidates []int
	for i := range combined {
		if !slices.ContainsFunc(ctx.Labeled, func(ex LabeledExample) bool { return ex.Index == i }) {
			candidates = append(candidates, i)
		}
	}
	switch s.params.Selection {
	case SelectLogAssisted:
		return logAssistedSelection(logIndexOf(ctx), candidates, combined, num)
	case SelectMaxMin:
		return logAssistedSelection(&kernel.LogIndex{}, candidates, combined, num)
	case SelectBoundary:
		return BoundarySelection(candidates, combined, num)
	}
	return RandomSelection(linalg.NewRNG(randomSelectionSeed), candidates, combined, num)
}

// refCoupled is Fig. 1's step 2 written out: rho doubles from rhoInit to the
// ceiling; at each value every modality is trained fresh on the labeled
// points (cost C) and the unlabeled ones (cost rho·C, the current labels),
// then each unlabeled label flips when that lowers the summed hinge loss by
// more than Delta, and the modalities retrain, until no label flips or
// maxCorrectionIters passes. With nothing drafted it trains once.
func refCoupled(mods []Modality, labels, initial []float64, cfg CoupledConfig) (*CoupledResult, error) {
	nl, nu := len(labels), len(initial)
	res := &CoupledResult{Models: make([]*svm.Model, len(mods)), UnlabeledLabels: slices.Clone(initial)}
	decisions := make([][]float64, len(mods))
	train := func(rho float64) error {
		ys := append(slices.Clone(labels), res.UnlabeledLabels...)
		for m, mod := range mods {
			costs := append(costsOf(nl, mod.C), costsOf(nu, rho*mod.C)...)
			model, err := refTrain(append(slices.Clone(mod.Labeled), mod.Unlabeled...), ys, costs, mod.Kernel)
			if err != nil {
				return fmt.Errorf("modality %d: %w", m, err)
			}
			res.Models[m], res.SolverIterations = model, res.SolverIterations+model.Iterations
			decisions[m] = decisions[m][:0]
			for _, x := range mod.Unlabeled {
				decisions[m] = append(decisions[m], model.Decision(x))
			}
		}
		res.Retrainings += len(mods)
		return nil
	}
	correct := func() int {
		flips := 0
		for i, y := range res.UnlabeledLabels {
			var keep, flip float64
			for m, mod := range mods {
				d := decisions[m][i]
				keep += float64(mod.C * max(0, 1-float64(y*d)))
				flip += float64(mod.C * max(0, 1-float64(-y*d)))
			}
			if keep-flip > cfg.Delta {
				res.UnlabeledLabels[i], flips = -y, flips+1
			}
		}
		res.Flips += flips
		return flips
	}
	if nu == 0 {
		return res, train(cfg.Rho)
	}
	for rho := min(rhoInit, cfg.Rho); ; rho = min(2*rho, cfg.Rho) {
		res.RhoSteps++
		if err := train(rho); err != nil {
			return nil, err
		}
		for iter := 0; iter < maxCorrectionIters && correct() > 0; iter++ {
			if err := train(rho); err != nil {
				return nil, err
			}
		}
		if rho >= cfg.Rho {
			return res, nil
		}
	}
}
