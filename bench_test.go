package lrfcsvm

// This file is the benchmark harness of the reproduction: one benchmark per
// table and figure of the paper's evaluation section, plus ablation benches
// for the choices the paper leaves open (the sweeps of `lrfbench -ablation`,
// README "Layout"). Each benchmark runs the full protocol — synthetic dataset
// generation, feature extraction, simulated log collection, query evaluation
// — on the CI-scale profile so that `go test -bench=.` finishes in minutes;
// the full paper-scale numbers are produced by `go run ./cmd/lrfbench` and
// recorded in EXPERIMENTS.md.
//
// The per-scheme mean average precision of every run is reported through
// b.ReportMetric (as "MAP_<scheme>"), so the benchmark output itself shows
// whether the paper's qualitative ordering holds.

import (
	"fmt"
	"strings"
	"testing"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/eval"
)

// prepareBench prepares a CI-profile experiment once per benchmark.
func prepareBench(b *testing.B, cfg eval.Config) *eval.Experiment {
	b.Helper()
	exp, err := eval.Prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

// runTable runs the four paper schemes and reports their MAP as metrics.
func runTable(b *testing.B, exp *eval.Experiment, name string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(name, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			for _, row := range table.Rows {
				metric := "MAP_" + strings.ReplaceAll(row.Scheme, " ", "_")
				b.ReportMetric(row.MAP, metric)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkTable1_20Category regenerates Table 1 of the paper: average
// precision at top-20..100 plus MAP for Euclidean, RF-SVM, LRF-2SVMs and
// LRF-CSVM on the 20-Category dataset (CI profile).
func BenchmarkTable1_20Category(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	runTable(b, exp, "Table 1 (CI profile)")
}

// BenchmarkTable2_50Category regenerates Table 2 (50-Category dataset).
func BenchmarkTable2_50Category(b *testing.B) {
	exp := prepareBench(b, eval.CI50(42))
	runTable(b, exp, "Table 2 (CI profile)")
}

// BenchmarkFigure3_20Category regenerates the precision-versus-returned
// curve of Figure 3 (20-Category dataset). The series is identical to the
// Table 1 data; the benchmark reports the precision of the LRF-CSVM curve at
// the first and last cutoff so the curve shape is visible in the output.
func BenchmarkFigure3_20Category(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run("Figure 3 (CI profile)", nil)
		if err != nil {
			b.Fatal(err)
		}
		fig := eval.FromTable(table, "Figure 3")
		if i == b.N-1 {
			b.StopTimer()
			for _, s := range fig.Series {
				metric := strings.ReplaceAll(s.Scheme, " ", "_")
				b.ReportMetric(s.Y[0], "P20_"+metric)
				b.ReportMetric(s.Y[len(s.Y)-1], "P100_"+metric)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFigure4_50Category regenerates Figure 4 (50-Category dataset).
func BenchmarkFigure4_50Category(b *testing.B) {
	exp := prepareBench(b, eval.CI50(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run("Figure 4 (CI profile)", nil)
		if err != nil {
			b.Fatal(err)
		}
		fig := eval.FromTable(table, "Figure 4")
		if i == b.N-1 {
			b.StopTimer()
			for _, s := range fig.Series {
				metric := strings.ReplaceAll(s.Scheme, " ", "_")
				b.ReportMetric(s.Y[0], "P20_"+metric)
				b.ReportMetric(s.Y[len(s.Y)-1], "P100_"+metric)
			}
			b.StartTimer()
		}
	}
}

// runVariants evaluates a set of LRF-CSVM variants (plus the LRF-2SVMs
// reference) and reports their MAP.
func runVariants(b *testing.B, exp *eval.Experiment, schemes []core.Scheme) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run("ablation", schemes)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			for _, row := range table.Rows {
				metric := "MAP_" + strings.ReplaceAll(strings.ReplaceAll(row.Scheme, " ", "_"), "'", "")
				b.ReportMetric(row.MAP, metric)
			}
			b.StartTimer()
		}
	}
}

// named renames an ablation variant for reporting.
type named struct {
	core.Scheme
	label string
}

func (n named) Name() string { return n.label }

// BenchmarkAblationUnlabeledSelection compares the unlabeled-selection
// strategies of Section 6.5: the default log-assisted max/min heuristic, the
// purely score-driven max/min of Fig. 1, boundary-based active selection
// (which the paper reports as unpromising) and random drafting.
func BenchmarkAblationUnlabeledSelection(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	var schemes []core.Scheme
	for _, s := range []core.SelectionStrategy{core.SelectLogAssisted, core.SelectMaxMin, core.SelectBoundary, core.SelectRandom} {
		schemes = append(schemes, core.LRFCSVMWithSelection{Strategy: s, RandomSeed: 11})
	}
	runVariants(b, exp, schemes)
}

// BenchmarkAblationRho sweeps the final weight ceiling rho of the annealing
// schedule (Eq. 1 / Section 4.2), the parameter Section 6.5 singles out as
// important.
func BenchmarkAblationRho(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	var schemes []core.Scheme
	for _, rho := range []float64{0.1, 0.25, 0.5, 1, 2} {
		p := core.CSVMParams{Coupled: core.CoupledConfig{Rho: rho}}
		schemes = append(schemes, named{core.LRFCSVM{Params: p}, fmt.Sprintf("rho=%g", rho)})
	}
	runVariants(b, exp, schemes)
}

// BenchmarkAblationDelta sweeps the label-correction threshold Delta of
// Fig. 1.
func BenchmarkAblationDelta(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	var schemes []core.Scheme
	for _, delta := range []float64{0.25, 0.5, 1, 2, 4} {
		p := core.CSVMParams{Coupled: core.CoupledConfig{Delta: delta}}
		schemes = append(schemes, named{core.LRFCSVM{Params: p}, fmt.Sprintf("delta=%g", delta)})
	}
	runVariants(b, exp, schemes)
}

// BenchmarkAblationUnlabeledCount sweeps N', the number of drafted
// transductive points.
func BenchmarkAblationUnlabeledCount(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	var schemes []core.Scheme
	for _, nu := range []int{8, 16, 32, 64} {
		p := core.CSVMParams{NumUnlabeled: nu}
		schemes = append(schemes, named{core.LRFCSVM{Params: p}, fmt.Sprintf("Nprime=%d", nu)})
	}
	runVariants(b, exp, schemes)
}

// BenchmarkAblationLogSessions sweeps the size of the user-feedback log,
// from a quarter of the paper's 150 sessions to twice as many, showing how
// the log-based schemes degrade gracefully toward RF-SVM as the log shrinks.
func BenchmarkAblationLogSessions(b *testing.B) {
	for _, sessions := range []int{15, 30, 60, 120} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			cfg := eval.CI20(42)
			cfg.Log.Sessions = sessions
			exp := prepareBench(b, cfg)
			runVariants(b, exp, []core.Scheme{core.RFSVM{}, core.LRF2SVMs{}, core.LRFCSVM{}})
		})
	}
}

// BenchmarkAblationLogNoise sweeps the judgment-noise rate of the simulated
// log, probing the noise sensitivity the paper leaves to future work.
func BenchmarkAblationLogNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("noise=%g", noise), func(b *testing.B) {
			cfg := eval.CI20(42)
			cfg.Log.NoiseRate = noise
			exp := prepareBench(b, cfg)
			runVariants(b, exp, []core.Scheme{core.LRF2SVMs{}, core.LRFCSVM{}})
		})
	}
}

// BenchmarkAblationLogKernel compares the linear co-judgment kernel used by
// default over the log vectors against the paper's literal RBF choice.
func BenchmarkAblationLogKernel(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	rbf := core.LogRBFKernel(exp.LogVectors)
	schemes := []core.Scheme{
		named{core.LRF2SVMs{}, "2SVMs_linear"},
		named{core.LRF2SVMs{LogKernel: rbf}, "2SVMs_rbf"},
		named{core.LRFCSVM{}, "CSVM_linear"},
		named{core.LRFCSVM{Params: core.CSVMParams{LogKernel: rbf}}, "CSVM_rbf"},
	}
	runVariants(b, exp, schemes)
}

// BenchmarkFeatureExtraction measures the visual-descriptor pipeline on one
// 64x64 image (color moments + Canny edge histogram + wavelet entropies);
// it is the per-image indexing cost of the CBIR system.
func BenchmarkFeatureExtraction(b *testing.B) {
	benchmarkFeatureExtraction(b)
}

// BenchmarkCoupledSVMQuery measures one full LRF-CSVM feedback round
// (selection, annealed coupled training, ranking the whole collection) on
// the CI-profile collection.
func BenchmarkCoupledSVMQuery(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	ctx := exp.QueryContext(exp.SampleQueries()[0])
	scheme := core.LRFCSVM{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Rank(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRFSVMQuery measures one regular RF-SVM feedback round for
// comparison with BenchmarkCoupledSVMQuery.
func BenchmarkRFSVMQuery(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	ctx := exp.QueryContext(exp.SampleQueries()[0])
	scheme := core.RFSVM{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Rank(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTopK measures one full query per scheme through the
// streaming top-K path at the server's default page size (K=20), with a
// recycled result buffer — the steady-state serving pattern. Allocation
// statistics are reported (the pure ranking stage is internal/core's
// BenchmarkRankingPath*, its allocation contract TestStreamRankingAllocations).
func BenchmarkQueryTopK(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	query := exp.SampleQueries()[0]
	for _, tc := range []struct {
		name   string
		scheme core.TopKRanker
	}{
		{"euclidean", core.Euclidean{}},
		{"rf-svm", core.RFSVM{}},
		{"lrf-2svms", core.LRF2SVMs{}},
		{"lrf-csvm", core.LRFCSVM{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctx := exp.QueryContext(query)
			ctx.Workers = 1
			buf := make([]core.Ranked, 0, 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := tc.scheme.RankTopAppend(ctx, 20, buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = got
			}
		})
	}
}
