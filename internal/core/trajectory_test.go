package core

import (
	"math"
	"testing"
)

// TestTrainCoupledTrajectoryPinned is the exact pin of the cold-start
// trainer: on benchCoupledSetup's fixed problem (15 labeled + 16 unlabeled
// points, RBF over the visual descriptors, the co-judgment kernel over the
// log vectors, 8 label flips along the schedule) the alternating
// optimisation must take the same number of annealing steps, retrainings,
// label corrections and SMO pair updates, and end on bit-identical duals
// and biases in both modalities. The values were recorded at 8b6de9a and
// are the same on the default and the -tags purego build: training reads
// its kernel rows through kernel.Cache (math.Exp, sparse dots), never
// through the scan's dot kernels. The golden MAPs of internal/eval only see
// a change here after it has moved a ranking; this test sees the first ulp.
// Re-record only for a deliberate change to the solver's arithmetic.
func TestTrainCoupledTrajectoryPinned(t *testing.T) {
	modalities, labels, initial, cfg := benchCoupledSetup(t)
	res, err := TrainCoupled(modalities, labels, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := [4]int{res.RhoSteps, res.Retrainings, res.Flips, res.SolverIterations}
	if want := [4]int{13, 28, 8, 1021}; counts != want {
		t.Errorf("RhoSteps, Retrainings, Flips, SolverIterations = %v, want %v", counts, want)
	}
	want := []struct {
		name   string
		bias   uint64
		alphas []uint64
	}{
		{"visual", 0x3fee833a28bb0b0a, []uint64{
			0x3fbe3319335383b7, 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000,
			0x3fd653355cddb7e3, 0x3fc1c27d0b930d96, 0x0000000000000000, 0x0000000000000000,
			0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
			0x3ff0000000000000, 0x3faece3e90f414e8, 0x3ff0000000000000, 0x3f8a21b7097ef2c8,
			0x0000000000000000, 0x3f9569f736fd836e, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f9a3bc790d07b19, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f99994599c86488, 0x3fd0000000000000,
		}},
		{"log", 0x3fe8afad08d9ee78, []uint64{
			0x3fbecb4138350747, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3fd2a881c6ce399f, 0x3fbbbed68743dad0, 0x3fda6a6c233f2b41,
			0x0000000000000000, 0x0000000000000000, 0x3fcc8a9a58ffb486, 0x3fcd35943ce54a1a,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x3fd0000000000000, 0x3fc7f4ac97bc9df4, 0x3fd0000000000000,
		}},
	}
	if len(res.Models) != len(want) {
		t.Fatalf("got %d models, want %d", len(res.Models), len(want))
	}
	for m, w := range want {
		model := res.Models[m]
		if got := math.Float64bits(model.Bias); got != w.bias {
			t.Errorf("%s: bias bits %#016x, want %#016x", w.name, got, w.bias)
		}
		if len(model.Alphas) != len(w.alphas) {
			t.Fatalf("%s: %d alphas, want %d", w.name, len(model.Alphas), len(w.alphas))
		}
		for i, a := range model.Alphas {
			if got := math.Float64bits(a); got != w.alphas[i] {
				t.Errorf("%s: alpha[%d] bits %#016x, want %#016x", w.name, i, got, w.alphas[i])
			}
		}
	}
}
