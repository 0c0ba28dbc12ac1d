// Command lrfbench reproduces the paper's evaluation: Tables 1-2 and
// Figures 3-4 (average precision of Euclidean, RF-SVM, LRF-2SVMs and
// LRF-CSVM versus the number of returned images on the 20-Category and
// 50-Category datasets), plus the ablation sweeps around LRF-CSVM's defaults
// (README "Layout"; the ablations table below is the list).
//
// Examples:
//
//	lrfbench -dataset 20                      # Table 1 + Figure 3, full scale
//	lrfbench -dataset 50 -queries 100         # Table 2 with fewer queries
//	lrfbench -dataset 20 -profile ci          # fast scaled-down profile
//	lrfbench -dataset 20 -ablation rho        # rho-ceiling ablation
//
// Performance is not this tool's job: bench/ and BENCHMARK.json hold the
// benchmark of record (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/eval"
)

func main() {
	var (
		datasetFlag = flag.Int("dataset", 20, "dataset to evaluate: 20 or 50 categories")
		profile     = flag.String("profile", "full", "experiment profile: full (paper scale) or ci (scaled down)")
		queries     = flag.Int("queries", 0, "override the number of evaluation queries (0 keeps the profile default)")
		seed        = flag.Uint64("seed", 42, "experiment seed")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		ablation    = flag.String("ablation", "", "run an ablation instead of the main table: "+strings.Join(ablationNames(), ", "))
	)
	flag.Parse()

	// Everything the flags can get wrong is diagnosed here, before
	// eval.Prepare spends minutes building the dataset.
	cfg, name, figure, sweep, err := buildConfig(*datasetFlag, *profile, *queries, *seed, *ablation)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrfbench:", err)
		os.Exit(2)
	}
	cfg.Workers = *workers

	start := time.Now()
	fmt.Printf("preparing %d-Category dataset (%d images, %dx%d) and %d log sessions...\n",
		cfg.Dataset.Categories, cfg.Dataset.Categories*cfg.Dataset.ImagesPerCategory,
		cfg.Dataset.Width, cfg.Dataset.Height, cfg.Log.Sessions)
	exp, err := eval.Prepare(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("prepared in %v (log coverage %.0f%%, %d judgments)\n\n",
		time.Since(start).Round(time.Millisecond), 100*exp.LogStats.CoverageFraction, exp.LogStats.TotalJudgments)

	if sweep != nil {
		if err := runAblation(exp, sweep); err != nil {
			fmt.Fprintln(os.Stderr, "lrfbench:", err)
			os.Exit(1)
		}
		return
	}

	table, err := exp.Run(name, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrfbench:", err)
		os.Exit(1)
	}
	fmt.Println(table.Format())
	fmt.Println(eval.FromTable(table, figure).Format())
	fmt.Printf("total wall time %v\n", time.Since(start).Round(time.Second))
}

// buildConfig validates the flags and turns them into the experiment
// configuration, the table and figure captions, and the ablation to run in
// place of the main table (nil when -ablation is not given).
func buildConfig(dataset int, profile string, queries int, seed uint64, ablation string) (cfg eval.Config, name, figure string, sweep *ablationSweep, err error) {
	switch dataset {
	case 20:
		cfg, name, figure = eval.Paper20(seed), "Table 1", "Figure 3"
		if profile == "ci" {
			cfg = eval.CI20(seed)
			name, figure = "Table 1 (CI profile)", "Figure 3 (CI profile)"
		}
	case 50:
		cfg, name, figure = eval.Paper50(seed), "Table 2", "Figure 4"
		if profile == "ci" {
			cfg = eval.CI50(seed)
			name, figure = "Table 2 (CI profile)", "Figure 4 (CI profile)"
		}
	default:
		return cfg, "", "", nil, fmt.Errorf("unknown dataset %d (want 20 or 50)", dataset)
	}
	if profile != "full" && profile != "ci" {
		return cfg, "", "", nil, fmt.Errorf("unknown profile %q (want full or ci)", profile)
	}
	if queries < 0 {
		return cfg, "", "", nil, fmt.Errorf("negative -queries %d (want a positive count, or 0 for the profile default)", queries)
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	if ablation != "" {
		for i := range ablations {
			if ablations[i].name == ablation {
				sweep = &ablations[i]
				break
			}
		}
		if sweep == nil {
			return cfg, "", "", nil, fmt.Errorf("unknown ablation %q (want %s)", ablation, strings.Join(ablationNames(), ", "))
		}
	}
	return cfg, name, figure, sweep, nil
}

// ablationSweep is one -ablation: the LRF-CSVM variants it evaluates around
// the default configuration.
type ablationSweep struct {
	name    string
	schemes func(exp *eval.Experiment) []core.Scheme
}

// ablations is the one list of -ablation names: the flag's help text, its
// validation and the sweep that runs all read it. Every variant is the zero
// CSVMParams — the main table's LRF-CSVM — with the one field its sweep
// varies, so each sweep contains the main table's row.
var ablations = []ablationSweep{
	{"selection", func(*eval.Experiment) []core.Scheme {
		var schemes []core.Scheme
		for _, strat := range []core.SelectionStrategy{core.SelectLogAssisted, core.SelectMaxMin, core.SelectBoundary, core.SelectRandom} {
			schemes = append(schemes, core.LRFCSVMWithSelection{Strategy: strat, RandomSeed: 11})
		}
		return schemes
	}},
	{"rho", func(*eval.Experiment) []core.Scheme {
		var schemes []core.Scheme
		for _, rho := range []float64{0.1, 0.5, 1, 2} {
			p := core.CSVMParams{Coupled: core.CoupledConfig{Rho: rho}}
			schemes = append(schemes, namedScheme{core.LRFCSVM{Params: p}, fmt.Sprintf("LRF-CSVM rho=%g", rho)})
		}
		return schemes
	}},
	{"delta", func(*eval.Experiment) []core.Scheme {
		var schemes []core.Scheme
		for _, delta := range []float64{0.25, 0.5, 1, 2, 4} {
			p := core.CSVMParams{Coupled: core.CoupledConfig{Delta: delta}}
			schemes = append(schemes, namedScheme{core.LRFCSVM{Params: p}, fmt.Sprintf("LRF-CSVM delta=%g", delta)})
		}
		return schemes
	}},
	{"unlabeled", func(*eval.Experiment) []core.Scheme {
		var schemes []core.Scheme
		for _, nu := range []int{8, 16, 32, 64} {
			p := core.CSVMParams{NumUnlabeled: nu}
			schemes = append(schemes, namedScheme{core.LRFCSVM{Params: p}, fmt.Sprintf("LRF-CSVM N'=%d", nu)})
		}
		return schemes
	}},
	{"logkernel", func(exp *eval.Experiment) []core.Scheme {
		rbf := core.LogRBFKernel(exp.LogVectors)
		return []core.Scheme{
			namedScheme{core.LRF2SVMs{}, "LRF-2SVMs log=linear"},
			namedScheme{core.LRF2SVMs{LogKernel: rbf}, "LRF-2SVMs log=rbf"},
			namedScheme{core.LRFCSVM{}, "LRF-CSVM log=linear"},
			namedScheme{core.LRFCSVM{Params: core.CSVMParams{LogKernel: rbf}}, "LRF-CSVM log=rbf"},
		}
	}},
}

func ablationNames() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return names
}

// runAblation evaluates the sweep's variants next to the two reference
// schemes, which are always included for context.
func runAblation(exp *eval.Experiment, sweep *ablationSweep) error {
	schemes := append([]core.Scheme{core.RFSVM{}, core.LRF2SVMs{}}, sweep.schemes(exp)...)
	table, err := exp.Run("Ablation: "+sweep.name, schemes)
	if err != nil {
		return err
	}
	fmt.Println(table.Format())
	return nil
}

// namedScheme overrides a scheme's display name so ablation variants are
// distinguishable in the output table.
type namedScheme struct {
	core.Scheme
	name string
}

func (n namedScheme) Name() string { return n.name }
