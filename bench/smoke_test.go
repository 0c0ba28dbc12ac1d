package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The smoke tests run a miniature of every workload — the real mixes, flags
// and code paths over a collection of a few hundred images for about a
// second — end-to-end against a real cbirserver process and traced
// in-process, so tier-1 covers the harness.

var smokeServerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke-")
	if err != nil {
		panic(err)
	}
	// The package directory is bench/; the module root is its parent.
	smokeServerBin, err = buildServer(context.Background(), "..", dir)
	if err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// miniature shrinks a workload's collection and keeps everything else.
func miniature(w workload) workload {
	w.Shape = shape{Categories: 8, PerCategory: 40, Sessions: 60}
	if w.SnapshotInterval != "" {
		w.SnapshotInterval = "200ms"
	}
	return w
}

func smokeConfig(t *testing.T) runConfig {
	dir := t.TempDir()
	return runConfig{ServerBin: smokeServerBin, OutDir: dir, Seed: 1, Seconds: 1}
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, harness froze its loop counts at %d", b.RunSeconds, referenceSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if !(w.SpinWeight > 0 && w.SpinWeight <= 1) {
			t.Errorf("workload %s: spin weight %v outside (0, 1]", w.Name, w.SpinWeight)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, harness %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, harness %+v", i, got, d)
		}
	}
}

// assertReport checks that a run printed every metric BENCHMARK.json names
// with a finite value, ran the named checks, and came out correct.
func assertReport(t *testing.T, rep *report, names []string, checks ...string) {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out)
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]value
	}
	if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	for _, name := range names {
		v, ok := line.Metrics[name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
			t.Errorf("metric %s missing or not finite in the result line: %+v", name, v)
		}
		if !strings.Contains(out.String(), "\n"+name+" ") {
			t.Errorf("metric %s is not printed by name in the report", name)
		}
	}
	if len(line.Metrics) != len(names) {
		t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(names))
	}
	ran := make(map[string]bool)
	for _, c := range rep.Checks {
		ran[c.Name] = true
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	for _, name := range checks {
		if !ran[name] {
			t.Errorf("check %q did not run", name)
		}
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			rep, err := runEndToEnd(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertReport(t, rep, names, "requests", "ranking sanity", "feedback helps", "no acknowledged write lost")
			if rep.Latency[classQuery].Count == 0 || rep.Latency[classRefine].Count == 0 {
				t.Errorf("a request class has no latency samples: %+v", rep.Latency)
			}
			if w.Mixed && (rep.Latency[classCommit].Count == 0 || rep.Latency[classIngest].Count == 0) {
				t.Errorf("the writer left no latency samples: %+v", rep.Latency)
			}
			assertNoStrays(t, cfg)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			rep, err := runTraced(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertReport(t, rep, names, "handler equals Rank+TopK oracle", "replay depths agree")
			trace, err := os.ReadFile(filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
			ids := make(map[int64]bool, len(lines))
			var spans []span
			for _, l := range lines {
				var s span
				if err := json.Unmarshal(l, &s); err != nil {
					t.Fatalf("trace line %q: %v", l, err)
				}
				ids[s.SpanID] = true
				spans = append(spans, s)
			}
			for _, s := range spans {
				if s.ParentID != 0 && !ids[s.ParentID] {
					t.Fatalf("span %d names a parent %d that is not in the trace", s.SpanID, s.ParentID)
				}
				if s.EndNS < s.StartNS || s.Layer == "" || s.Name == "" || s.TraceID == 0 {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestTracedCountsRepeatPerSeed: the counts the layers keep themselves are
// exact — equal across two traced runs of one seed, different under another.
func TestTracedCountsRepeatPerSeed(t *testing.T) {
	w := miniature(workloads[0])
	counts := func(seed uint64) [3]float64 {
		cfg := smokeConfig(t)
		cfg.Seed = seed
		rep, err := runTraced(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{rep.Metrics["core.solver_iterations"], rep.Metrics["core.retrainings"], rep.Metrics["storage.bytes_per_commit"]}
	}
	a, b, c := counts(1), counts(1), counts(2)
	if a != b {
		t.Errorf("two traced runs of seed 1 disagree on exact counts: %v vs %v", a, b)
	}
	if a[0] == c[0] {
		t.Errorf("seed 2 left core.solver_iterations unchanged at %v", a[0])
	}
}

// TestWrongExpectationFailsTheRun corrupts the oracle's expected scores and
// requires the command to exit non-zero.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-server", smokeServerBin, "-out", dir, "-workload", workloads[0].Name, "-seconds", "1", "-trace", "1"}
	saved := workloads[0]
	workloads[0] = miniature(saved)
	defer func() { workloads[0] = saved }()

	if code := quietly(func() int { return run(args) }); code != 0 {
		t.Fatalf("an untouched traced run exited %d", code)
	}
	oracleScale = 1 + 1e-12
	defer func() { oracleScale = 1 }()
	if code := quietly(func() int { return run(args) }); code == 0 {
		t.Fatal("a corrupted expected value still exited 0")
	}
}

// TestFailedRunLeavesNoServer cancels a run while its server is up and
// looks for survivors.
func TestFailedRunLeavesNoServer(t *testing.T) {
	if _, err := os.Stat("/proc/self/cmdline"); err != nil {
		t.Skip("no /proc to scan")
	}
	cfg := smokeConfig(t)
	cfg.Seconds = 60 // long enough to be cancelled in the middle
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runEndToEnd(ctx, miniature(workloads[3]), cfg)
		done <- err
	}()
	deadline := time.Now().Add(20 * time.Second)
	for len(serversUnder(cfg.OutDir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no server process appeared within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("a cancelled run reported success")
	}
	assertNoStrays(t, cfg)
	entries, err := os.ReadDir(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("scratch directory %s was left behind", e.Name())
		}
	}
}

// serversUnder lists the live cbirserver processes whose arguments mention
// root (every server gets its file paths from its run's scratch directory).
func serversUnder(root string) []string {
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	var found []string
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err == nil && bytes.Contains(raw, []byte(root)) && bytes.Contains(raw, []byte("cbirserver")) {
			found = append(found, p+": "+string(bytes.ReplaceAll(raw, []byte{0}, []byte(" "))))
		}
	}
	return found
}

func assertNoStrays(t *testing.T, cfg runConfig) {
	t.Helper()
	for _, p := range serversUnder(cfg.OutDir) {
		t.Errorf("stray server process %s", p)
	}
}

// quietly runs fn with standard output and error discarded.
func quietly(fn func() int) int {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return fn()
	}
	defer null.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, null
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	return fn()
}
