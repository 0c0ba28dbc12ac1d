// Command bench is the repository's benchmark: it generates a collection and
// a feedback log from a seed, launches the real cmd/cbirserver binary on a
// loopback TCP port, drives it with one closed-loop relevance-feedback
// client, checks every answer, and prints each metric by name with its unit. A separate traced run replays requests in-process at successive
// depths to attribute time to layers. See README.md for the workloads, the
// metric glossary and how to read the output.
//
//	go run ./bench -all -seed 1                    every workload, end-to-end then traced
//	go run ./bench -workload feedback-paper        one end-to-end run
//	go run ./bench -workload feedback-paper -trace 1
//	go run ./bench -repeat 5 [-workload name]      run-to-run spread against the bounds
//
// BENCHMARK.json's command (bench/run.sh) builds both binaries inside the
// checkout and calls this program with -workload, -seed, -seconds and
// -trace; the last line of standard output is then the machine-readable
// result.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload: "+workloadNames())
		all          = fs.Bool("all", false, "run every workload end-to-end, then traced")
		repeat       = fs.Int("repeat", 0, "run the workload(s) this many times against fresh servers and report the spread of every end-to-end metric")
		seed         = fs.Uint64("seed", 1, "seed of every generated input")
		seconds      = fs.Int("seconds", referenceSeconds, "run length: the loop counts are this many seconds' worth at the frozen per-workload rates")
		trace        = fs.Int("trace", 0, "1 = traced depth-replay run (per-layer metrics), 0 = end-to-end run")
		serverBin    = fs.String("server", "", "path of a built cmd/cbirserver (default: build it from the module in the working directory)")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{ServerBin: *serverBin, OutDir: *outDir, Seed: *seed, Seconds: *seconds}
	if cfg.ServerBin == "" {
		binDir, err := os.MkdirTemp(*outDir, "bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer os.RemoveAll(binDir)
		if cfg.ServerBin, err = buildServer(ctx, ".", binDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	} else if !*all && *repeat == 0 {
		fmt.Fprintln(os.Stderr, "bench: name a -workload, or use -all or -repeat N")
		return 2
	}

	switch {
	case *repeat > 0:
		return runRepeat(ctx, selected, cfg, *repeat)
	case *all:
		ok := true
		for _, traced := range []bool{false, true} {
			for _, w := range selected {
				ok = runOne(ctx, w, cfg, traced, false) && ok
			}
		}
		if !ok {
			return 1
		}
		return 0
	default:
		if !runOne(ctx, selected[0], cfg, *trace == 1, true) {
			return 1
		}
		return 0
	}
}

// runOne runs one workload once and prints its report; with resultLine the
// machine-readable result is the last line. It reports whether the run was
// correct.
func runOne(ctx context.Context, w workload, cfg runConfig, traced, resultLine bool) bool {
	var rep *report
	var err error
	if traced {
		rep, err = runTraced(ctx, w, cfg)
	} else {
		rep, err = runEndToEnd(ctx, w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return false
	}
	rep.print(os.Stdout)
	if resultLine {
		fmt.Println(rep.resultLine())
	}
	return rep.correct()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
