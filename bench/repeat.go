package main

import (
	"context"
	"fmt"
	"os"
)

// runRepeat runs each selected workload n times back to back against fresh
// servers with the same seed and prints, per end-to-end metric, the median,
// the quartiles, (Q3 − Q1) ÷ median and (max − min) ÷ median, marking every
// metric whose spread exceeds its bound. REPEATABILITY.md is this output; it
// decides which metrics stay in BENCHMARK.json and froze the loop counts.
func runRepeat(ctx context.Context, selected []workload, cfg runConfig, n int) int {
	exit := 0
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			rep, err := runEndToEnd(ctx, w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, i+1, err)
				return 1
			}
			if !rep.correct() {
				rep.print(os.Stdout)
				exit = 1
			}
			for _, d := range endToEndMetrics {
				values[d.Name] = append(values[d.Name], rep.Metrics[d.Name])
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done (measured %.1f s)\n", w.Name, i+1, n, rep.Info["measured_wall_s s"])
		}
		printSpread(w, cfg, n, values)
	}
	return exit
}

func printSpread(w workload, cfg runConfig, n int, values map[string][]float64) {
	fmt.Printf("\n### %s — %d runs, seed %d, %d s, %d loops\n\n", w.Name, n, cfg.Seed, cfg.Seconds, loopsFor(w.LoopsPerSecond, cfg.Seconds))
	fmt.Printf("| metric | unit | median | Q1 | Q3 | (Q3−Q1)/median | (max−min)/median | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, d := range endToEndMetrics {
		s := spreadOf(values[d.Name])
		mark := ""
		if d.Name != "setup_s" && s.iqrShare() > d.Bound {
			mark = "**exceeds bound**"
		} else if d.Name != "setup_s" && s.iqrShare() > d.Bound/3 {
			mark = "above a third of the bound"
		}
		fmt.Printf("| `%s` | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %.2f | %s |\n",
			d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.iqrShare(), s.rangeShare(), d.Bound, mark)
	}
}
