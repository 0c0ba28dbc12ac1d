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
//
// The schedule of this pin, Rho = 0.25 and Delta = 0.5, is the one the
// ablation sweeps ran around until PR 20 (13 annealing steps);
// TestTrainCoupledServingTrajectoryPinned pins the default one.
func TestTrainCoupledTrajectoryPinned(t *testing.T) {
	checkTrajectory(t, CoupledConfig{Rho: 0.25, Delta: 0.5}, [4]int{13, 28, 8, 1021}, []modelPin{
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
	})
}

// TestTrainCoupledServingTrajectoryPinned is the same pin under the zero
// CoupledConfig: the schedule the server, the paper tables and bench/ train
// with (Rho = 1, Delta = 1: 15 annealing steps). Recorded at e3c8253, before
// PR 20 deleted an option, identical on the -tags purego build.
func TestTrainCoupledServingTrajectoryPinned(t *testing.T) {
	checkTrajectory(t, CoupledConfig{}, [4]int{15, 32, 8, 1248}, []modelPin{
		{"visual", 0x3fef8254a1592548, []uint64{
			0x3fe7d30e525c3a3d, 0x3fa675c852d6517d, 0x0000000000000000, 0x0000000000000000,
			0x3fd0c1440567162d, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x3fe5ab07b9855231, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
			0x3fea10c66980de58, 0x3fdb011de8dc0b26, 0x3ff0000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f82ad625a6630ab, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3fbe838e68d96ccb, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f8abdefe69de60c, 0x3feca276f82f6185,
		}},
		{"log", 0x3feb9ba245a68c9b, []uint64{
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3fe5d3008cce8c89, 0x3fc2566a4659c31f, 0x3fef32052f20c0f4,
			0x0000000000000000, 0x0000000000000000, 0x3fcb839eca3a1066, 0x3fc1895abbbdf1b8,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x3fe6c1140e4b3ec3, 0x3fc560750b661cac, 0x3ff0000000000000,
		}},
	})
}

// modelPin is one modality's final bias and duals, as Float64bits.
type modelPin struct {
	name   string
	bias   uint64
	alphas []uint64
}

// checkTrajectory trains benchCoupledSetup's problem under cfg and compares
// the run's counts and final models with the pinned ones.
func checkTrajectory(t *testing.T, cfg CoupledConfig, wantCounts [4]int, want []modelPin) {
	t.Helper()
	modalities, labels, initial := benchCoupledSetup(t)
	res, err := TrainCoupled(modalities, labels, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counts := [4]int{res.RhoSteps, res.Retrainings, res.Flips, res.SolverIterations}; counts != wantCounts {
		t.Errorf("RhoSteps, Retrainings, Flips, SolverIterations = %v, want %v", counts, wantCounts)
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
