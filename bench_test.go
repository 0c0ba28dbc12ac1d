package lrfcsvm

// This file is the benchmark harness of the reproduction: one benchmark per
// table of the paper's evaluation section (its figure plots the same data),
// plus the ablation sweeps for the choices the paper leaves open (the sweeps
// of `lrfbench -ablation`, README "Layout"). Each benchmark runs the full
// protocol — synthetic dataset generation, feature extraction, simulated log
// collection, query evaluation — on the CI-scale profile so that `go test
// -bench=.` finishes in minutes; the full paper-scale numbers are produced by
// `go run ./cmd/lrfbench` and recorded in EXPERIMENTS.md.
//
// Every run reports, per scheme, its mean average precision ("MAP_<scheme>")
// and the two ends of its precision-versus-returned curve ("P20_", "P100_")
// through b.ReportMetric, so the benchmark output itself shows whether the
// paper's qualitative ordering holds.

import (
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

// runTable times run and reports, from its last table, every row's MAP and
// the two ends of its precision-versus-returned curve, which is the figure's
// series: Figures 3 and 4 plot the data of Tables 1 and 2.
func runTable(b *testing.B, run func() (*eval.Table, error)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.StopTimer()
			for _, row := range table.Rows {
				name := strings.ReplaceAll(strings.ReplaceAll(row.Scheme, " ", "_"), "'", "")
				b.ReportMetric(row.MAP, "MAP_"+name)
				b.ReportMetric(row.Precision[0], "P20_"+name)
				b.ReportMetric(row.Precision[len(row.Precision)-1], "P100_"+name)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkTable1_20Category regenerates Table 1 and Figure 3 of the paper:
// average precision at top-20..100 plus MAP for Euclidean, RF-SVM, LRF-2SVMs
// and LRF-CSVM on the 20-Category dataset (CI profile).
func BenchmarkTable1_20Category(b *testing.B) {
	exp := prepareBench(b, eval.CI20(42))
	runTable(b, func() (*eval.Table, error) { return exp.Run("Table 1 (CI profile)", nil) })
}

// BenchmarkTable2_50Category regenerates Table 2 and Figure 4 (50-Category
// dataset).
func BenchmarkTable2_50Category(b *testing.B) {
	exp := prepareBench(b, eval.CI50(42))
	runTable(b, func() (*eval.Table, error) { return exp.Run("Table 2 (CI profile)", nil) })
}

// BenchmarkAblation runs every sweep of eval.Ablations — the list `lrfbench
// -ablation` runs at paper scale — on the CI profile, one sub-benchmark per
// sweep and, for the sweeps over the log, per log setting; each reports its
// variants and the two reference schemes.
func BenchmarkAblation(b *testing.B) {
	for _, sweep := range eval.Ablations {
		for _, v := range sweep.Variants(eval.CI20(42)) {
			b.Run(strings.TrimSuffix(sweep.Name+"/"+v.Label, "/"), func(b *testing.B) {
				exp := prepareBench(b, v.Config)
				runTable(b, func() (*eval.Table, error) { return exp.RunAblation(sweep, v.Label) })
			})
		}
	}
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
		scheme core.Scheme
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
