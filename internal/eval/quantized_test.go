package eval

import (
	"math"
	"testing"

	"lrfcsvm/internal/core"
)

// TestQuantizedLaneRecallAndMAP is the accuracy gate of the int8 scan lane on
// the golden evaluation profile: at the default oversample the quantized
// top-20 must recover >= 99% of the exact Euclidean top-20 averaged over the
// query workload, and the Euclidean precision curve computed from the
// quantized ranking must stay within 0.005 MAP of the exact one. The measured
// values are logged. This test and core's
// TestRankTopQuantizedRecall are what hold the 0.99 floor.
func TestQuantizedLaneRecallAndMAP(t *testing.T) {
	exp, err := Prepare(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := exp.SampleQueries()
	cutoffs := Cutoffs
	maxK := cutoffs[len(cutoffs)-1]

	var recallSum float64
	exactSums := make([]float64, len(cutoffs))
	quantSums := make([]float64, len(cutoffs))
	for _, q := range queries {
		ctx := exp.QueryContext(q)
		exact, err := core.Euclidean{}.RankTopAppend(ctx, maxK, nil)
		if err != nil {
			t.Fatal(err)
		}
		quant, err := core.Euclidean{}.RankTopQuantized(ctx, maxK, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make([]int, len(exact))
		for i, r := range exact {
			oracle[i] = r.Index
		}
		approx := make([]int, len(quant))
		for i, r := range quant {
			approx[i] = r.Index
		}
		recallSum += RecallAtK(oracle, approx, 20)
		relevant := exp.Relevant(q)
		for ci, k := range cutoffs {
			exactSums[ci] += PrecisionAt(exact, relevant, k)
			quantSums[ci] += PrecisionAt(quant, relevant, k)
		}
	}
	n := float64(len(queries))
	recall := recallSum / n
	exactCurve := make([]float64, len(cutoffs))
	quantCurve := make([]float64, len(cutoffs))
	for i := range cutoffs {
		exactCurve[i] = exactSums[i] / n
		quantCurve[i] = quantSums[i] / n
	}
	exactMAP := MeanAveragePrecision(exactCurve)
	quantMAP := MeanAveragePrecision(quantCurve)
	delta := math.Abs(exactMAP - quantMAP)
	t.Logf("quantized lane: recall@20 = %.6f, exact MAP = %.6f, quantized MAP = %.6f, |delta| = %.2g",
		recall, exactMAP, quantMAP, delta)
	if recall < 0.99 {
		t.Fatalf("quantized recall@20 = %.4f, want >= 0.99", recall)
	}
	if delta > 0.005 {
		t.Fatalf("quantized MAP delta = %g, want <= 0.005", delta)
	}
}
