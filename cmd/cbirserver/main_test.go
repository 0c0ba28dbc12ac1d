package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lrfcsvm/internal/faultinject"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
	"lrfcsvm/internal/storage"
)

// TestDurabilityStatusSurfacesFaults: an fsync that fails on the background
// flush and a snapshot pass that fails fail no request, so the adapter is
// the only way an operator learns of either. Both must read on /api/status,
// and the fsync count on /metrics.
func TestDurabilityStatusSurfacesFaults(t *testing.T) {
	dir := t.TempDir()
	rng := linalg.NewRNG(5)
	visual := make([]linalg.Vector, 12)
	for i := range visual {
		visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
	}
	in := faultinject.New(faultinject.Plan{})
	fblog := feedbacklog.NewLog(len(visual))
	journal, set, replay, err := storage.OpenJournalOver(filepath.Join(dir, "engine.wal"), kernel.NewShardedSet(visual, 0), fblog,
		storage.JournalOptions{
			Fsync:    storage.FsyncOff, // no background flusher: the test plays the flush ticker itself
			WrapFile: func(f *os.File) storage.File { return in.Wrap(f) },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	engine, err := retrieval.NewEngineOver(set, fblog, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	// A snapshot path in a directory that does not exist: every pass fails.
	snapshotter, err := storage.NewSnapshotter(journal, engine.SnapshotWith, storage.SnapshotterConfig{
		SnapshotPath: filepath.Join(dir, "missing", "engine.snap"),
		Interval:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snapshotter.Close()

	srv := server.NewWithConfig(engine, server.Config{Durability: durabilityStatus(journal, snapshotter, replay)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One journaled ingestion leaves the journal dirty; from here every
	// fsync fails, and the flush ticker fires twice.
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{0.5, 0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	in.SetPlan(faultinject.Plan{FailSyncFrom: 1})
	for range 2 {
		if err := journal.Sync(); err == nil {
			t.Fatal("the injected fsync fault did not reach the journal")
		}
	}
	if err := snapshotter.SnapshotNow(); err == nil {
		t.Fatal("a snapshot into a missing directory succeeded")
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	var status server.StatusResponse
	if err := json.Unmarshal(get("/api/status"), &status); err != nil {
		t.Fatal(err)
	}
	d := status.Durability
	if d == nil {
		t.Fatal("no durability section with a journal attached")
	}
	if d.JournaledImages != 1 || d.SyncFailures != 2 {
		t.Errorf("durability section = %+v, want 1 journaled image and 2 sync failures", *d)
	}
	if d.LastSnapshotError == "" || d.Snapshots != 0 {
		t.Errorf("durability section = %+v, want the failed snapshot pass's error and no snapshots", *d)
	}
	if metrics := string(get("/metrics")); !strings.Contains(metrics, "\ncbir_journal_sync_failures_total 2\n") {
		t.Errorf("/metrics does not report cbir_journal_sync_failures_total 2:\n%s", metrics)
	}
}

// TestCheckCommandLine: main runs this right after flag.Parse, before it
// reads the collection. A mistyped -fsync used to be reported after the whole
// collection was loaded, or never without -journal, and a positional argument
// was ignored, so `cbirserver features.bin` served ./features.bin. A
// snapshotter with both triggers disabled was refused by storage.NewSnapshotter
// after the journal had been replayed.
func TestCheckCommandLine(t *testing.T) {
	if fsync, err := checkCommandLine(nil, "always", true, 5*time.Minute, 0); err != nil || fsync != storage.FsyncAlways {
		t.Errorf("-fsync always = %v, %v", fsync, err)
	}
	if _, err := checkCommandLine(nil, "alway", false, 0, 0); err == nil || !strings.Contains(err.Error(), `"alway"`) {
		t.Errorf("-fsync alway: error %v, want one naming the value", err)
	}
	if _, err := checkCommandLine([]string{"features.bin"}, "interval", false, 0, 0); err == nil || !strings.Contains(err.Error(), `"features.bin"`) {
		t.Errorf("positional argument: error %v, want one naming it", err)
	}
	if _, err := checkCommandLine(nil, "interval", true, 0, -1); err == nil || !strings.Contains(err.Error(), "never run") {
		t.Errorf("-snapshot-interval 0 -journal-max-bytes -1: error %v, want the snapshotter refused", err)
	}
	// Either trigger alone is a snapshotter, and without one (no -journal or
	// no -snapshot) the two flags are not read at all.
	for _, ok := range []struct {
		snapshotting bool
		interval     time.Duration
		maxBytes     int64
	}{{true, time.Second, -1}, {true, 0, 0}, {false, 0, -1}} {
		if _, err := checkCommandLine(nil, "interval", ok.snapshotting, ok.interval, ok.maxBytes); err != nil {
			t.Errorf("checkCommandLine(%+v) = %v, want accepted", ok, err)
		}
	}
}

// TestReadmeNamesTheFlags holds README.md to the command line: every flag
// main.go defines (the definitions `make loc` counts) is named there, and
// every `-flag` it names in backticks is one a program under cmd/ defines —
// a deleted flag goes from the README with the code.
func TestReadmeNamesTheFlags(t *testing.T) {
	definition := regexp.MustCompile(`flag\.\w+\("([a-z][a-z-]*)"`)
	defined := func(pattern string) map[string]bool {
		names := make(map[string]bool)
		sources, _ := filepath.Glob(pattern)
		for _, path := range sources {
			source, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range definition.FindAllSubmatch(source, -1) {
				names[string(m[1])] = true
			}
		}
		return names
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	own, any := defined("main.go"), defined("../*/main.go")
	if len(own) == 0 {
		t.Fatal("main.go defines no flag: the test no longer reads it")
	}
	for name := range own {
		if !bytes.Contains(readme, []byte("`-"+name+"`")) && !bytes.Contains(readme, []byte("`-"+name+" ")) {
			t.Errorf("README.md does not name -%s", name)
		}
	}
	for _, m := range regexp.MustCompile("`-([a-z][a-z-]*)").FindAllSubmatch(readme, -1) {
		if !any[string(m[1])] {
			t.Errorf("README.md names `-%s`, which no program under cmd/ defines", m[1])
		}
	}
}

// TestStartRefusesBadRows: a collection with one bad row, or none, starts no
// server.
// A record of another dimension and a non-finite descriptor are each refused
// with the image's index, and both dimensions where they differ, as
// NewEngine's check reports them — from the feature store, and a non-finite
// descriptor from a snapshot too, with or without a journal.
func TestStartRefusesBadRows(t *testing.T) {
	rows := func() []linalg.Vector {
		return []linalg.Vector{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 0, 1}}
	}
	wider, nan := rows(), rows()
	wider[2] = linalg.Vector{7, 8, 9, 10}
	nan[2][1] = math.NaN()
	for _, c := range []struct {
		what     string
		rows     []linalg.Vector
		snapshot bool
		want     string
	}{
		{"a record of another dimension", wider, false, "image 2 has dimension 4, collection has 3"},
		{"a non-finite descriptor", nan, false, "retrieval: image 2 is not finite (squared norm NaN)"},
		{"a non-finite descriptor in a snapshot", nan, true, "retrieval: image 2 is not finite (squared norm NaN)"},
	} {
		for _, journaled := range []bool{false, true} {
			dir := t.TempDir()
			features, snapshot, journal := filepath.Join(dir, "features.bin"), "", ""
			if err := storage.SaveFeatures(features, c.rows, make([]int, len(c.rows))); err != nil {
				t.Fatal(err)
			}
			if c.snapshot {
				snapshot = filepath.Join(dir, "engine.snap")
				if err := storage.SaveSnapshotSetAt(snapshot, kernel.NewShardedSet(c.rows, 0), feedbacklog.NewLog(len(c.rows)), 0); err != nil {
					t.Fatal(err)
				}
				features = filepath.Join(dir, "missing.bin") // the snapshot wins
			}
			if journaled {
				journal = filepath.Join(dir, "engine.wal")
			}
			engine, j, _, err := startEngine(snapshot, features, "", journal, storage.FsyncOff)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (journal %v): started with error %v, want one naming %q", c.what, journaled, err, c.want)
			}
			if engine != nil {
				engine.Close()
			}
			if j != nil {
				j.Close()
			}
		}
	}

	// An empty feature store is refused too, with a journal or without (a
	// journaled start used to panic on a log over no images), naming the
	// file.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.bin")
	if err := storage.SaveFeatures(empty, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, journal := range []string{"", filepath.Join(dir, "engine.wal")} {
		want := empty + " holds no images"
		if _, _, _, err := startEngine("", empty, "", journal, storage.FsyncOff); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("an empty feature store (journal %q) started with error %v, want one naming %q", journal, err, want)
		}
	}
}
