// Command lrfbench reproduces the paper's evaluation: Tables 1-2 (average
// precision of Euclidean, RF-SVM, LRF-2SVMs and LRF-CSVM versus the number of
// returned images on the 20-Category and 50-Category datasets; a table's
// columns are the curves of Figures 3-4), plus the ablation sweeps around
// LRF-CSVM's defaults (README "Layout"; eval.Ablations is the list).
//
// Examples:
//
//	lrfbench -dataset 20                      # Table 1 (Figure 3's data), full scale
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
	"slices"
	"strings"
	"time"

	"lrfcsvm/internal/eval"
)

func main() {
	var (
		datasetFlag = flag.Int("dataset", 20, "dataset to evaluate: 20 or 50 categories")
		profile     = flag.String("profile", "full", "experiment profile: full (paper scale) or ci (scaled down)")
		queries     = flag.Int("queries", 0, "override the number of evaluation queries (0 keeps the profile default)")
		seed        = flag.Uint64("seed", 42, "experiment seed")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		ablation    = flag.String("ablation", "", "run an ablation instead of the main table: "+strings.Join(eval.AblationNames(), ", "))
	)
	flag.Parse()

	// Everything the flags can get wrong is diagnosed here, before
	// eval.Prepare spends minutes building the dataset.
	cfg, name, sweep, err := buildConfig(flag.Args(), *datasetFlag, *profile, *queries, *seed, *ablation)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrfbench:", err)
		os.Exit(2)
	}
	cfg.Workers = *workers

	// The main table runs on the profile; a sweep over the log prepares one
	// experiment per setting.
	start := time.Now()
	variants := []eval.Variant{{Config: cfg}}
	if sweep != nil {
		variants = sweep.Variants(cfg)
	}
	for _, v := range variants {
		if err := run(v, name, sweep); err != nil {
			fmt.Fprintln(os.Stderr, "lrfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("total wall time %v\n", time.Since(start).Round(time.Second))
}

// run prepares one experiment and prints its table: the sweep's variants next
// to the reference schemes, or the main table.
func run(v eval.Variant, name string, sweep *eval.Ablation) error {
	cfg, start := v.Config, time.Now()
	fmt.Printf("preparing %d-Category dataset (%d images, %dx%d) and %d log sessions...\n",
		cfg.Dataset.Categories, cfg.Dataset.Categories*cfg.Dataset.ImagesPerCategory,
		cfg.Dataset.Width, cfg.Dataset.Height, cfg.Log.Sessions)
	exp, err := eval.Prepare(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("prepared in %v (log coverage %.0f%%, %d judgments)\n\n",
		time.Since(start).Round(time.Millisecond), 100*exp.LogStats.CoverageFraction, exp.LogStats.TotalJudgments)

	var table *eval.Table
	if sweep != nil {
		table, err = exp.RunAblation(*sweep, v.Label)
	} else {
		table, err = exp.Run(name, nil)
	}
	if err != nil {
		return err
	}
	fmt.Println(table.Format())
	return nil
}

// buildConfig validates the command line and turns it into the experiment
// configuration, the table caption, and the ablation to run in place of the
// main table (nil when -ablation is not given). args are the positional
// arguments, which it refuses: every input is a flag, and flag.Parse stops at
// the first non-flag, so `lrfbench 50 -profile ci` would otherwise run the
// paper-scale Table 1.
func buildConfig(args []string, dataset int, profile string, queries int, seed uint64, ablation string) (cfg eval.Config, name string, sweep *eval.Ablation, err error) {
	if len(args) > 0 {
		return cfg, "", nil, fmt.Errorf("unexpected argument %q: every input is a flag, and none after it was read", args[0])
	}
	switch dataset {
	case 20:
		cfg, name = eval.Paper20(seed), "Table 1"
		if profile == "ci" {
			cfg, name = eval.CI20(seed), "Table 1 (CI profile)"
		}
	case 50:
		cfg, name = eval.Paper50(seed), "Table 2"
		if profile == "ci" {
			cfg, name = eval.CI50(seed), "Table 2 (CI profile)"
		}
	default:
		return cfg, "", nil, fmt.Errorf("unknown dataset %d (want 20 or 50)", dataset)
	}
	if profile != "full" && profile != "ci" {
		return cfg, "", nil, fmt.Errorf("unknown profile %q (want full or ci)", profile)
	}
	if queries < 0 {
		return cfg, "", nil, fmt.Errorf("negative -queries %d (want a positive count, or 0 for the profile default)", queries)
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	if ablation != "" {
		i := slices.IndexFunc(eval.Ablations, func(a eval.Ablation) bool { return a.Name == ablation })
		if i < 0 {
			return cfg, "", nil, fmt.Errorf("unknown ablation %q (want %s)", ablation, strings.Join(eval.AblationNames(), ", "))
		}
		sweep = &eval.Ablations[i]
	}
	return cfg, name, sweep, nil
}
