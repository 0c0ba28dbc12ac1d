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
// and biases in both modalities. The three pins of this file were last
// re-recorded when the RBF kernel's Gram entries moved from math.Exp onto
// package kernel's exponential, expOne. They are the same on the default
// and the -tags purego build, and with and without fused multiply-add
// (GODEBUG=cpu.fma=off): training reads its kernel values from
// kernel.Cache's Gram matrix (Go squared distances and sparse dots, then the
// backend's exponential, which every member computes as expOne does), so
// no CPU feature moves a bit of them. The golden MAPs of internal/eval only
// see a change here after it has moved a ranking; this test sees the first
// ulp. Re-record only for a deliberate change to the solver's arithmetic.
//
// The schedule of this pin, Rho = 0.25 and Delta = 0.5, is the one the
// ablation sweeps ran around until PR 20 (13 annealing steps);
// TestTrainCoupledServingTrajectoryPinned pins the default one.
func TestTrainCoupledTrajectoryPinned(t *testing.T) {
	checkTrajectory(t, benchCoupledSetup, CoupledConfig{Rho: 0.25, Delta: 0.5}, [4]int{13, 28, 8, 977}, []modelPin{
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
// with (Rho = 1, Delta = 1: 15 annealing steps).
func TestTrainCoupledServingTrajectoryPinned(t *testing.T) {
	checkTrajectory(t, benchCoupledSetup, CoupledConfig{}, [4]int{15, 32, 8, 1216}, []modelPin{
		{"visual", 0x3fef7e4e0c29380d, []uint64{
			0x3fe7b13d30bab301, 0x3fa9fffb437db5f6, 0x0000000000000000, 0x0000000000000000,
			0x3fd09a7c743ced76, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x3fe68f84c69281fd, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
			0x3feaad1d9aeba4ea, 0x3fd904c9d825ab02, 0x3ff0000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f83d902724e3404, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3fbe838e68d96cef, 0x0000000000000000, 0x0000000000000000,
			0x0000000000000000, 0x3f8b774116462f96, 0x3fec14cab8207f51,
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

// TestTrainCoupledDenseLogTrajectoryPinned is the serving pin on
// denseLogCoupledSetup's problem, the feedback-small shape: 20 labeled + 16
// drafted points whose log vectors hold ~60 of 1,500 sessions each, where
// the two pins above hold a few of 60. It is the one pin of the log Gram
// matrix kernel.Cache computes at a realistic density. It held unchanged
// while the cache's sparse linear rows moved onto the session index and its
// fill became symmetric (each pair evaluated once, mirrored).
func TestTrainCoupledDenseLogTrajectoryPinned(t *testing.T) {
	checkTrajectory(t, denseLogCoupledSetup, CoupledConfig{}, [4]int{15, 32, 8, 1777}, []modelPin{
		{"visual", 0x3fe04d593308eedd, []uint64{
			0x3febb7706cbb2894, 0x3fca269141d5a7d7, 0x3fdac5e744db5fad, 0x0000000000000000,
			0x3fd0acd861ddaf61, 0x0000000000000000, 0x3fc63b1ac41d9be1, 0x3fc8854f60f58788,
			0x3fc7b2186c893dba, 0x3ff0000000000000, 0x3fef74d85a61e85e, 0x3ff0000000000000,
			0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3f8f2724b443ec08,
			0x3fd7b86dc3192f66, 0x3ff0000000000000, 0x3fd17027b78f9c98, 0x3ff0000000000000,
			0x3fdb3e41a86213f1, 0x3fd01b962c0c6b0e, 0x3fd87cd176541ae9, 0x3fdf5b62f0b71598,
			0x3fde07b0710bed53, 0x3fc205bd9847478a, 0x3fc61d267b0319b8, 0x3fdd4f2eee57e04a,
			0x3fcc2e36b9567b5a, 0x3fd096ff3c0dc0ac, 0x3fb9e8d6e82df0c6, 0x3fd3b19dbcbefca1,
			0x3fce31eb43857b88, 0x3fd89dc93d368496, 0x3fd3f97ae7cc21b3, 0x3fda75322fc4f7b6,
		}},
		{"log", 0xbf996e58cb0c4643, []uint64{
			0x3f7fa72df6da64ad, 0x3f6282daadccb16b, 0x3f5ed5b2025f64e3, 0x3f770eec1a23048a,
			0x3f7e0564c36b1d1d, 0x0000000000000000, 0x3f650f6c30c86920, 0x3f6b84792b677067,
			0x0000000000000000, 0x3f90f520fafc0dd2, 0x3f85e099ba9aad06, 0x3f90e79bba84275b,
			0x3f895fb012b9e460, 0x3f9189b7ca305a74, 0x3f9382347e5b6b87, 0x3f7a6ab4d65c2cee,
			0x0000000000000000, 0x3f863d55e2e2a615, 0x3f82d08e3bce868a, 0x3f9182ed68f525f4,
			0x3f6ff7abba860faa, 0x3f7639278fcff2cb, 0x3f6fa1b1254b50d8, 0x0000000000000000,
			0x3f80f804fc5bcdeb, 0x3f1c8e30e7ef7c67, 0x3f6f15a460fbec29, 0x3f837976b85e6cac,
			0x3f65808f51371cf8, 0x3f6544025a2e2609, 0x3f6f83f9d38987c3, 0x3f807e79caf68461,
			0x3f7308d91f60d738, 0x3f80c99f12742d41, 0x3f4dfd22003b2229, 0x3f809f578ebda1fb,
		}},
	})
}

// modelPin is one modality's final bias and duals, as Float64bits.
type modelPin struct {
	name   string
	bias   uint64
	alphas []uint64
}

// checkTrajectory trains setup's problem under cfg and compares the run's
// counts and final models with the pinned ones.
func checkTrajectory(t *testing.T, setup func(testing.TB) ([]Modality, []float64, []float64), cfg CoupledConfig, wantCounts [4]int, want []modelPin) {
	t.Helper()
	modalities, labels, initial := setup(t)
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
