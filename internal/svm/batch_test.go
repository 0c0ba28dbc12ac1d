package svm

import (
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// trainTestModel trains a small two-cluster RBF model used by the batch
// parity tests.
func trainTestModel(t *testing.T, cfg Config) (*Model, []kernel.Point, []linalg.Vector) {
	t.Helper()
	rng := linalg.NewRNG(11)
	var vecs []linalg.Vector
	var labels []float64
	for i := 0; i < 24; i++ {
		center := 0.0
		label := -1.0
		if i%2 == 0 {
			center = 3.0
			label = 1.0
		}
		vecs = append(vecs, linalg.Vector{
			center + rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
			rng.Normal(0, 0.5),
		})
		labels = append(labels, label)
	}
	points := kernel.DensePoints(vecs)
	model, err := Train(NewProblem(points, labels, 1), cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return model, points, vecs
}

// TestDecisionBatchMatchesScalar pins the batched decision path to the
// scalar one on the training points and on fresh probes.
func TestDecisionBatchMatchesScalar(t *testing.T) {
	model, points, _ := trainTestModel(t, Config{Kernel: kernel.RBF{Gamma: 0.5}})
	dst := make([]float64, len(points))
	model.DecisionBatch(points, dst, nil)
	for i, p := range points {
		if want := model.Decision(p); dst[i] != want {
			t.Errorf("DecisionBatch[%d] = %v, want exactly %v", i, dst[i], want)
		}
	}
}

// TestDecisionSetMatchesScalar pins the fused DenseSet decision path to the
// scalar one within 1e-12 (the fused RBF path uses the norm expansion and
// the fast exponential).
func TestDecisionSetMatchesScalar(t *testing.T) {
	model, points, vecs := trainTestModel(t, Config{Kernel: kernel.RBF{Gamma: 0.5}})
	set := kernel.NewDenseSet(vecs)
	dst := make([]float64, set.Len())
	model.DecisionSet(set, dst, nil)
	for i, p := range points {
		want := model.Decision(p)
		if math.Abs(dst[i]-want) > 1e-12 {
			t.Errorf("DecisionSet[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// TestSharedCacheIdenticalModel verifies that training through a shared,
// pre-populated kernel cache returns exactly the model a private cache
// produces — kernel values do not depend on labels or costs, so reusing
// rows across trainings must not change anything.
func TestSharedCacheIdenticalModel(t *testing.T) {
	k := kernel.RBF{Gamma: 0.5}
	base, points, _ := trainTestModel(t, Config{Kernel: k})

	var evals int
	shared := kernel.NewCache(countingKernel{k, &evals}, points)
	// Pre-populate by a first training run, then retrain through the now
	// warm cache.
	labels := make([]float64, len(points))
	for i := range labels {
		labels[i] = -1
		if i%2 == 0 {
			labels[i] = 1
		}
	}
	for run := 0; run < 2; run++ {
		before := evals
		model, err := Train(NewProblem(points, labels, 1), Config{Kernel: k, SharedCache: shared})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 1 && evals != before {
			t.Errorf("second training evaluated %d kernel pairs, want every row from the shared cache", evals-before)
		}
		if model.Bias != base.Bias {
			t.Fatalf("run %d: bias = %v, want %v", run, model.Bias, base.Bias)
		}
		for i := range base.Alphas {
			if model.Alphas[i] != base.Alphas[i] {
				t.Fatalf("run %d: alpha[%d] = %v, want %v", run, i, model.Alphas[i], base.Alphas[i])
			}
		}
	}
	if evals == 0 {
		t.Error("the shared cache never evaluated its kernel")
	}
}

// countingKernel counts the pair evaluations a cache asks its kernel for.
// It has no batched path, so the cache fills each row through Eval, whose
// RBF arithmetic is the batched dense path's bit for bit.
type countingKernel struct {
	kernel.Kernel
	n *int
}

func (c countingKernel) Eval(x, y kernel.Point) float64 {
	*c.n++
	return c.Kernel.Eval(x, y)
}
