package core

import (
	"context"
	"testing"

	"lrfcsvm/internal/svm"
)

// benchCoupledSetup builds a realistic feedback-round training problem: a
// CI20-sized collection, one query's judged neighborhood as the labeled set
// and a drafted unlabeled set, in both modalities — exactly the problem
// LRFCSVM hands to TrainCoupled every refinement round. Its log is 60
// sessions, so a log vector holds a few entries.
func benchCoupledSetup(b testing.TB) (modalities []Modality, labels, initial []float64) {
	b.Helper()
	return coupledProblem(makeCollection(b, 8, 24, 60, 0, 5), 3, 15)
}

// denseLogCoupledSetup is the same round at the shape of the benchmark's
// feedback-small workload: 500 images in 36 dimensions, a log of 1,500
// sessions × 20 judgments (~60 entries per log vector), 20 labeled and 16
// drafted points. Here the log modality's Gram entries are sparse dots over
// dense-ish rows, which benchCoupledSetup's log never exercises.
func denseLogCoupledSetup(b testing.TB) (modalities []Modality, labels, initial []float64) {
	b.Helper()
	return coupledProblem(makeDenseLogCollection(b, 10, 50, 1500, 29), 7, 20)
}

// coupledProblem labels the labeledK Euclidean neighbours of the query by
// ground truth and drafts the first NumUnlabeled other images with
// alternating initial labels.
func coupledProblem(coll *syntheticCollection, query, labeledK int) (modalities []Modality, labels, initial []float64) {
	ctx := coll.queryContext(query, labeledK)
	ctx.LogVectors, ctx.LogIndex = nil, logIndexOf(ctx)
	batch := NewCollectionBatch(ctx.Visual)
	ctx.Batch = batch
	p := CSVMParams{}.withDefaults()

	labeledIdx := make([]int, len(ctx.Labeled))
	labels = make([]float64, len(ctx.Labeled))
	for i, ex := range ctx.Labeled {
		labeledIdx[i] = ex.Index
		labels[i] = ex.Label
	}
	// Draft the unlabeled set deterministically: the first NumUnlabeled
	// non-labeled images, alternating initial labels.
	labeledSet := ctx.labeledSet()
	var unlabeledIdx []int
	for i := 0; i < ctx.NumImages() && len(unlabeledIdx) < p.NumUnlabeled; i++ {
		if !labeledSet[i] {
			unlabeledIdx = append(unlabeledIdx, i)
			if len(unlabeledIdx)%2 == 0 {
				initial = append(initial, 1)
			} else {
				initial = append(initial, -1)
			}
		}
	}
	a := new(trainArena)
	modalities = []Modality{
		{Name: "visual", Kernel: batch.defaultVisualKernel(), C: svmCost, Labeled: a.visualPoints(batch, labeledIdx, nil), Unlabeled: a.visualPoints(batch, unlabeledIdx, nil)},
		{Name: "log", Kernel: p.LogKernel, C: svmCost, Labeled: a.logPoints(ctx, labeledIdx, nil), Unlabeled: a.logPoints(ctx, unlabeledIdx, nil)},
	}
	return modalities, labels, initial
}

// BenchmarkTrainCoupled measures the feedback-training hot path at its one
// configuration, the zero CoupledConfig, on two problems: log=ci is
// benchCoupledSetup's (log vectors of a few entries), log=dense is
// denseLogCoupledSetup's (the feedback-small shape, ~60 entries). Both train
// through fresh solvers, as TrainCoupled does. path=refine is a refine's
// training on log=dense's problem in one reused training arena, as a
// refine's pooled one: step 1's two labeled solves, then the coupled
// trainer through those solvers grown by the drafted points.
func BenchmarkTrainCoupled(b *testing.B) {
	for _, lane := range []struct {
		name  string
		setup func(testing.TB) ([]Modality, []float64, []float64)
	}{
		{"log=ci", benchCoupledSetup},
		{"log=dense", denseLogCoupledSetup},
	} {
		modalities, labels, initial := lane.setup(b)
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TrainCoupled(modalities, labels, initial, CoupledConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	modalities, labels, initial := denseLogCoupledSetup(b)
	b.Run("path=refine", func(b *testing.B) {
		b.ReportAllocs()
		labeled := make([]*svm.Solver, len(modalities))
		a := new(trainArena)
		for i := 0; i < b.N; i++ {
			for m, mod := range modalities {
				s, err := a.trainModality(m, context.Background(), mod.Labeled, labels, mod.C, mod.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				labeled[m] = s
			}
			if _, err := trainCoupled(modalities, labels, initial, CoupledConfig{}, labeled, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
