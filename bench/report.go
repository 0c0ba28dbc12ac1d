package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported number. The end-to-end and per-layer tables
// in metrics.go are the single list BENCHMARK.json, the reports and the
// README glossary agree on (TestBenchmarkJSONMatchesHarness pins the first
// two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric → workload it should move
}

// value is one measured number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check that ran.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is the outcome of one run of one workload, end-to-end or traced.
type report struct {
	Workload  string
	Traced    bool
	Env       environment
	Metrics   map[string]float64 // by metricDef name
	Info      map[string]float64 // informational numbers, "name unit" → value
	Latency   map[string]latencySummary
	Checks    []check
	Attempted int
	Failed    int
	Notes     []string
}

func newReport(w workload, traced bool, env environment) *report {
	return &report{
		Workload: w.Name,
		Traced:   traced,
		Env:      env,
		Metrics:  make(map[string]float64),
		Info:     make(map[string]float64),
		Latency:  make(map[string]latencySummary),
	}
}

func (r *report) check(name string, ok bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed, no request failed and every
// contract metric is a finite number.
func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return r.Failed == 0
}

func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// resultLine is the machine-readable last line of a contract run.
func (r *report) resultLine() string {
	metrics := make(map[string]value, len(r.defs()))
	for _, d := range r.defs() {
		if v, ok := r.Metrics[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(line)
}

// print writes the human-readable report: environment, every metric by name
// with its unit, latency tables with sample counts, and the checks.
func (r *report) print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "traced (depth replay, one client, in-process)"
	}
	fmt.Fprintf(w, "\n== %s · %s ==\n", r.Workload, kind)
	e := r.Env
	fmt.Fprintf(w, "env: commit %s · seed %d · seconds %d · loops %d · nproc %d · GOMAXPROCS %d · %s · kernel backend %s\n",
		e.Commit, e.Seed, e.Seconds, e.Loops, e.NumCPU, e.GoMaxProcs, e.GoVersion, e.KernelBackend)
	if len(e.ServerFlags) > 0 {
		fmt.Fprintf(w, "env: server flags %s\n", strings.Join(e.ServerFlags, " "))
	}
	fmt.Fprintf(w, "env: cpu steal %.4f · iowait %.4f · loadavg(1m) %.2f\n", e.StealShare, e.IOWaitShare, e.LoadAvg1)

	fmt.Fprintf(w, "\n%-44s %14s  %s\n", "metric", "value", "unit")
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			v = math.NaN()
		}
		extra := ""
		if d.Bound > 0 {
			extra = fmt.Sprintf("  (%s is better, bound %.0f%%)", d.Better, d.Bound*100)
		} else if d.Moves != "" {
			extra = "  → " + d.Moves
		}
		fmt.Fprintf(w, "%-44s %14.6g  %s%s\n", d.Name, v, d.Unit, extra)
	}
	fmt.Fprintf(w, "%-44s %14d  count\n", "requests_attempted", r.Attempted)
	fmt.Fprintf(w, "%-44s %14d  count\n", "requests_failed", r.Failed)
	fmt.Fprintf(w, "%-44s %14.6g  ratio\n", "failed_share", (&tally{Attempted: r.Attempted, Failed: r.Failed}).failedShare())

	if len(r.Latency) > 0 {
		fmt.Fprintf(w, "\nlatency by request class (ms; p99 and max are informational)\n")
		fmt.Fprintf(w, "%-18s %8s %10s %10s %10s %10s  %s\n", "class", "samples", "p50", "p90", "p99", "max", "highest percentile with >=10 samples beyond")
		for _, class := range sortedKeys(r.Latency) {
			s := r.Latency[class]
			fmt.Fprintf(w, "%-18s %8d %10.4f %10.4f %10.4f %10.4f  p%g\n", class, s.Count, s.P50, s.P90, s.P99, s.Max, s.SupportedTail)
		}
	}
	if len(r.Info) > 0 {
		fmt.Fprintf(w, "\ninformational\n")
		for _, name := range sortedKeys(r.Info) {
			fmt.Fprintf(w, "%-60s %14.6g\n", name, r.Info[name])
		}
	}
	fmt.Fprintf(w, "\nchecks\n")
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "%s %-34s %s\n", state, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
