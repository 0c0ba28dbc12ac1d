package core

import (
	"testing"
)

// benchCoupledSetup builds a realistic feedback-round training problem: a
// CI20-sized collection, one query's judged neighborhood as the labeled set
// and a drafted unlabeled set, in both modalities — exactly the problem
// LRFCSVM hands to TrainCoupled every refinement round.
func benchCoupledSetup(b testing.TB) (modalities []Modality, labels, initial []float64) {
	b.Helper()
	coll := makeCollection(b, 8, 24, 60, 0, 5)
	ctx := coll.queryContext(3, 15)
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
	modalities = []Modality{
		{Name: "visual", Kernel: batch.defaultVisualKernel(), C: svmCost, Labeled: batch.visualPoints(labeledIdx), Unlabeled: batch.visualPoints(unlabeledIdx)},
		{Name: "log", Kernel: p.LogKernel, C: svmCost, Labeled: ctx.logPoints(labeledIdx), Unlabeled: ctx.logPoints(unlabeledIdx)},
	}
	return modalities, labels, initial
}

// BenchmarkTrainCoupled measures the feedback-training hot path at its one
// configuration, the zero CoupledConfig.
func BenchmarkTrainCoupled(b *testing.B) {
	modalities, labels, initial := benchCoupledSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCoupled(modalities, labels, initial, CoupledConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
