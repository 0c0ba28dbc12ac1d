package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/eval"
)

// This file is the feedback-training micro-benchmark mode of lrfbench
// (-benchtrain): it measures core.TrainCoupled — the dominant per-round
// cost of the LRF-CSVM feedback path — on exactly the training problems
// the scheme produces (core.LRFCSVM.TrainingProblem), across the trainer's
// configuration lanes, and emits a machine-readable BENCH_train.json so
// the training-cost trajectory is tracked across PRs like BENCH_query.json
// tracks the query path.

// preOverhaulReference records core.TrainCoupled as measured at commit
// 9fa81b2 — the training path before the fused-selection/pooled-scratch/
// cached-decision overhaul — on the exact problem this tool measures (the
// CI 20-Category profile, seed 42, first sample query, extracted with the
// same TrainingProblem code), on a 1-core Intel Xeon @ 2.10GHz, the host
// that generated the committed BENCH_train.json; see EXPERIMENTS.md. It is
// a recorded historical baseline: regenerating the file on different
// hardware refreshes every lane below but not this constant, so the
// cross-version ratios are only meaningful on comparable hosts.
var preOverhaulReference = benchEntry{
	Name:        "train/coupled/pre-overhaul@9fa81b2",
	NsPerOp:     1030063,
	BytesPerOp:  133313,
	AllocsPerOp: 680,
}

// trainBenchReport is the BENCH_train.json document.
type trainBenchReport struct {
	Profile   string `json:"profile"`
	Images    int    `json:"images"`
	Labeled   int    `json:"labeled"`
	Unlabeled int    `json:"unlabeled"`
	GoVersion string `json:"go_version"`
	// Reference is the recorded pre-overhaul baseline (see
	// preOverhaulReference for provenance and caveats).
	Reference  benchEntry   `json:"reference"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// Diagnostics reports the solver work of one default-config round and
	// one fast-lane round: retrainings of the alternating optimization and
	// total SMO pair updates.
	Diagnostics struct {
		BaselineRetrainings      int `json:"baseline_retrainings"`
		BaselineSolverIterations int `json:"baseline_solver_iterations"`
		FastlaneRetrainings      int `json:"fastlane_retrainings"`
		FastlaneSolverIterations int `json:"fastlane_solver_iterations"`
	} `json:"diagnostics"`
	Summary struct {
		// Workers4SpeedupVsPreOverhaul is the headline acceptance number:
		// recorded pre-overhaul ns/op over the Workers=4 fast lane.
		Workers4SpeedupVsPreOverhaul float64 `json:"workers4_speedup_vs_pre_overhaul"`
		// AllocRatioVsPreOverhaul is pre-overhaul allocs/op over the
		// default lane's (the pooled solver scratch and deferred
		// support-vector expansion shrink it on every configuration).
		AllocRatioVsPreOverhaul float64 `json:"alloc_ratio_vs_pre_overhaul"`
		// FastlaneSpeedupInFile compares lanes measured in this run:
		// default lane ns/op over the Workers=4 fast lane's.
		FastlaneSpeedupInFile float64 `json:"fastlane_speedup_in_file"`
	} `json:"summary"`
}

// runTrainBench measures the coupled-training lanes (core.TrainLanes — the
// same table BenchmarkTrainCoupled runs, so the two benchmarks always
// measure identical configurations) on the prepared
// experiment and writes the JSON report to outPath.
func runTrainBench(exp *eval.Experiment, profile, outPath string) error {
	queries := exp.SampleQueries()
	scheme := core.LRFCSVM{Params: exp.Config.CSVM}
	ctx := exp.QueryContext(queries[0])
	modalities, labels, initial, err := scheme.TrainingProblem(ctx)
	if err != nil {
		return err
	}

	report := &trainBenchReport{
		Profile:   profile,
		Images:    len(exp.Visual),
		Labeled:   len(labels),
		Unlabeled: len(initial),
		GoVersion: runtime.Version(),
		Reference: preOverhaulReference,
	}
	fmt.Printf("feedback-training benchmarks (%d images, %d labeled + %d unlabeled per modality):\n",
		report.Images, report.Labeled, report.Unlabeled)

	base := exp.Config.CSVM.Coupled
	lanes := core.TrainLanes()
	entries := make(map[string]benchEntry, len(lanes))
	for _, lane := range lanes {
		cfg := base
		lane.Apply(&cfg)
		name := "train/coupled/" + lane.Name
		entries[lane.Name] = measureTrain(report, name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.TrainCoupled(modalities, labels, initial, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// One diagnostic round per headline lane.
	baseRes, err := core.TrainCoupled(modalities, labels, initial, base)
	if err != nil {
		return err
	}
	fastCfg := base
	lanes[len(lanes)-1].Apply(&fastCfg)
	fastRes, err := core.TrainCoupled(modalities, labels, initial, fastCfg)
	if err != nil {
		return err
	}
	report.Diagnostics.BaselineRetrainings = baseRes.Retrainings
	report.Diagnostics.BaselineSolverIterations = baseRes.SolverIterations
	report.Diagnostics.FastlaneRetrainings = fastRes.Retrainings
	report.Diagnostics.FastlaneSolverIterations = fastRes.SolverIterations

	fast := entries["fastlane-w4"]
	def := entries["baseline"]
	if fast.NsPerOp > 0 {
		report.Summary.Workers4SpeedupVsPreOverhaul = preOverhaulReference.NsPerOp / fast.NsPerOp
		report.Summary.FastlaneSpeedupInFile = def.NsPerOp / fast.NsPerOp
	}
	if def.AllocsPerOp > 0 {
		report.Summary.AllocRatioVsPreOverhaul = float64(preOverhaulReference.AllocsPerOp) / float64(def.AllocsPerOp)
	}

	fmt.Printf("fast lane (Workers=4 + warm start): %.2fx vs recorded pre-overhaul baseline, %.2fx vs this run's default lane; default lane allocs/op down %.1fx\n",
		report.Summary.Workers4SpeedupVsPreOverhaul, report.Summary.FastlaneSpeedupInFile, report.Summary.AllocRatioVsPreOverhaul)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// measureTrain runs one benchmark function and records it in the report.
func measureTrain(report *trainBenchReport, name string, fn func(b *testing.B)) benchEntry {
	res := testing.Benchmark(fn)
	e := benchEntry{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	report.Benchmarks = append(report.Benchmarks, e)
	fmt.Printf("  %-38s %12.0f ns/op %10d B/op %8d allocs/op\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	return e
}
