package storage

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

func sampleSnapshot(t *testing.T) ([]linalg.Vector, *feedbacklog.Log) {
	t.Helper()
	rng := linalg.NewRNG(31)
	visual := make([]linalg.Vector, 10)
	for i := range visual {
		visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1), float64(i)}
	}
	return visual, sampleLog(t)
}

func TestSnapshotRoundTrip(t *testing.T) {
	visual, log := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshotAt(&buf, visual, log, 0); err != nil {
		t.Fatal(err)
	}
	gotVisual, gotLog, _, err := ReadSnapshotAt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVisual) != len(visual) {
		t.Fatalf("%d descriptors, want %d", len(gotVisual), len(visual))
	}
	for i := range visual {
		if !gotVisual[i].Equal(visual[i], 0) {
			t.Errorf("descriptor %d = %v, want %v", i, gotVisual[i], visual[i])
		}
	}
	if gotLog.NumImages() != log.NumImages() || gotLog.NumSessions() != log.NumSessions() {
		t.Fatalf("log %d images/%d sessions, want %d/%d",
			gotLog.NumImages(), gotLog.NumSessions(), log.NumImages(), log.NumSessions())
	}
	for i, want := range log.Sessions() {
		got := gotLog.Sessions()[i]
		if got.QueryImage != want.QueryImage || got.TargetCategory != want.TargetCategory || len(got.Judgments) != len(want.Judgments) {
			t.Errorf("session %d = %+v, want %+v", i, got, want)
		}
		for img, j := range want.Judgments {
			if got.Judgments[img] != j {
				t.Errorf("session %d image %d = %d, want %d", i, img, got.Judgments[img], j)
			}
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	visual, log := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshotAt(&buf, nil, log, 0); err == nil {
		t.Error("empty collection accepted")
	}
	if err := WriteSnapshotAt(&buf, visual, nil, 0); err == nil {
		t.Error("nil log accepted")
	}
	if err := WriteSnapshotAt(&buf, visual, feedbacklog.NewLog(3), 0); err == nil {
		t.Error("mismatched log size accepted")
	}
	ragged := append(append([]linalg.Vector(nil), visual...)[:9], linalg.Vector{1})
	if err := WriteSnapshotAt(&buf, ragged, log, 0); err == nil {
		t.Error("ragged descriptors accepted")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	visual, log := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := WriteSnapshotAt(&buf, visual, log, 0); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte near the middle.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40
	if _, _, _, err := ReadSnapshotAt(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	// Truncation is detected too.
	if _, _, _, err := ReadSnapshotAt(bytes.NewReader(raw[:len(raw)-7])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSaveSnapshotAtomicOverwrite(t *testing.T) {
	visual, log := sampleSnapshot(t)
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := SaveSnapshotAt(path, visual, log, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a grown collection and reload: the new content wins.
	visual = append(visual, linalg.Vector{9, 9, 9})
	log.GrowImages(1)
	if err := SaveSnapshotAt(path, visual, log, 0); err != nil {
		t.Fatal(err)
	}
	gotVisual, gotLog, _, err := LoadSnapshotAt(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVisual) != 11 || gotLog.NumImages() != 11 {
		t.Errorf("reloaded %d descriptors, log covers %d images", len(gotVisual), gotLog.NumImages())
	}
}

// TestEngineSnapshotPersistenceLoop closes the persistence loop of the
// live-collection engine: grow an engine (ingestion + feedback), persist it
// through the snapshot store, reload it, and check the reloaded engine ranks
// bit-identically.
func TestEngineSnapshotPersistenceLoop(t *testing.T) {
	visual, log := sampleSnapshot(t)
	engine, err := retrieval.NewEngine(visual, log, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{4, 4, 4}, {-3, 2, 1}}); err != nil {
		t.Fatal(err)
	}
	s, err := engine.StartSession(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Judge(10, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Judge(2, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "engine.snap")
	snapVisual, snapLog := engine.SnapshotWith(nil)
	if err := SaveSnapshotAt(path, snapVisual, snapLog, 0); err != nil {
		t.Fatal(err)
	}
	loadedVisual, loadedLog, _, err := LoadSnapshotAt(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := retrieval.NewEngine(loadedVisual, loadedLog, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumImages() != engine.NumImages() || reloaded.NumLogSessions() != engine.NumLogSessions() {
		t.Fatalf("reloaded engine: %d images/%d sessions, want %d/%d",
			reloaded.NumImages(), reloaded.NumLogSessions(), engine.NumImages(), engine.NumLogSessions())
	}
	for _, query := range []int{0, 10, 11} {
		a, err := engine.InitialQuery(context.Background(), query, engine.NumImages())
		if err != nil {
			t.Fatal(err)
		}
		b, err := reloaded.InitialQuery(context.Background(), query, reloaded.NumImages())
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: live %+v, reloaded %+v", query, i, a[i], b[i])
			}
		}
	}
}

func TestSaveSnapshotBareFilename(t *testing.T) {
	// A directory-less path must stage its temp file next to the
	// destination (os.TempDir may be a different filesystem, where the
	// install rename would fail).
	t.Chdir(t.TempDir())
	visual, log := sampleSnapshot(t)
	if err := SaveSnapshotAt("engine.snap", visual, log, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadSnapshotAt("engine.snap"); err != nil {
		t.Fatal(err)
	}
}
