package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

func sampleFeatures() ([]linalg.Vector, []int) {
	return []linalg.Vector{
		{1.5, -2.25, 0},
		{0.125, 3.5, -7},
		{9, 8, 7},
	}, []int{0, 1, 1}
}

func sampleLog(t *testing.T) *feedbacklog.Log {
	t.Helper()
	log := feedbacklog.NewLog(10)
	sessions := []map[int]feedbacklog.Judgment{
		{0: feedbacklog.Relevant, 3: feedbacklog.Irrelevant, 7: feedbacklog.Relevant},
		{1: feedbacklog.Relevant, 2: feedbacklog.Relevant},
		{9: feedbacklog.Irrelevant, 0: feedbacklog.Relevant},
	}
	for i, j := range sessions {
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: i, TargetCategory: i % 2, Judgments: j}); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

func TestFeaturesRoundTrip(t *testing.T) {
	features, labels := sampleFeatures()
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, features, labels); err != nil {
		t.Fatal(err)
	}
	gotF, gotL, err := ReadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotF) != len(features) || len(gotL) != len(labels) {
		t.Fatalf("sizes %d/%d", len(gotF), len(gotL))
	}
	for i := range features {
		if !gotF[i].Equal(features[i], 0) {
			t.Errorf("feature %d = %v, want %v", i, gotF[i], features[i])
		}
		if gotL[i] != labels[i] {
			t.Errorf("label %d = %d, want %d", i, gotL[i], labels[i])
		}
	}
}

func TestFeaturesFileRoundTrip(t *testing.T) {
	features, labels := sampleFeatures()
	path := filepath.Join(t.TempDir(), "features.bin")
	if err := SaveFeatures(path, features, labels); err != nil {
		t.Fatal(err)
	}
	gotF, gotL, err := LoadFeatures(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotF) != 3 || gotL[2] != 1 {
		t.Errorf("loaded %d features, labels %v", len(gotF), gotL)
	}
}

// A Save that fails leaves the previous store byte for byte: the new one is
// staged beside it and installed only once complete.
func TestFailedSaveFeaturesKeepsThePreviousStore(t *testing.T) {
	features, labels := sampleFeatures()
	path := filepath.Join(t.TempDir(), "features.bin")
	if err := SaveFeatures(path, features, labels); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFeatures(path, features, labels[:1]); err == nil {
		t.Fatal("SaveFeatures accepted 3 features with 1 label")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a failed save changed the store: %d bytes became %d", len(before), len(after))
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Errorf("a failed save left %d files beside the store (%v)", len(entries), err)
	}
}

func TestWriteFeaturesSizeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, []linalg.Vector{{1}}, []int{1, 2}); err == nil {
		t.Error("expected error")
	}
}

func TestLogRoundTrip(t *testing.T) {
	log := sampleLog(t)
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumImages() != log.NumImages() || got.NumSessions() != log.NumSessions() {
		t.Fatalf("shape %d/%d", got.NumImages(), got.NumSessions())
	}
	for i, want := range log.Sessions() {
		gotS := got.Sessions()[i]
		if gotS.QueryImage != want.QueryImage || gotS.TargetCategory != want.TargetCategory {
			t.Errorf("session %d metadata differs", i)
		}
		if len(gotS.Judgments) != len(want.Judgments) {
			t.Errorf("session %d judgment count differs", i)
		}
		for img, j := range want.Judgments {
			if gotS.Judgments[img] != j {
				t.Errorf("session %d image %d judgment %v, want %v", i, img, gotS.Judgments[img], j)
			}
		}
	}
	// The relevance vectors rebuilt from the loaded log must be identical.
	gotCols, wantCols := got.RelevanceVectors(), log.RelevanceVectors()
	for img := range wantCols {
		if !gotCols[img].Equal(wantCols[img], 0) {
			t.Errorf("relevance vector %d differs after round trip", img)
		}
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	log := sampleLog(t)
	path := filepath.Join(t.TempDir(), "log.bin")
	if err := SaveLog(path, log); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSessions() != 3 {
		t.Errorf("loaded %d sessions", got.NumSessions())
	}
}

func TestCorruptionDetected(t *testing.T) {
	features, labels := sampleFeatures()
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, features, labels); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the payload of the first record (after the 8-byte
	// file header and the 8-byte record header).
	data[20] ^= 0xff
	if _, _, err := ReadFeatures(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("expected ErrCorrupt, got %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	log := sampleLog(t)
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadLog(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("expected ErrCorrupt, got %v", err)
	}
}

func TestWrongKindRejected(t *testing.T) {
	features, labels := sampleFeatures()
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, features, labels); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(&buf); err == nil {
		t.Error("feature file accepted as log file")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, _, err := ReadFeatures(strings.NewReader("NOTAFILE-AT-ALL")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestEmptyCollections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	f, l, err := ReadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 0 || len(l) != 0 {
		t.Error("empty store not empty after round trip")
	}
}

func TestLoadMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadFeatures(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected error")
	}
	if _, err := LoadLog(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected error")
	}
}

// Judgments are encoded in ascending image order whatever order the map
// yields them in, so the same session always encodes to the same bytes.
func TestEncodeSessionAscendingImages(t *testing.T) {
	payload := encodeSession(feedbacklog.Session{Judgments: map[int]feedbacklog.Judgment{
		5: feedbacklog.Relevant, 1: feedbacklog.Relevant, 4: feedbacklog.Irrelevant, 9: feedbacklog.Relevant, 3: feedbacklog.Irrelevant,
	}})
	for i, want := range []uint32{1, 3, 4, 5, 9} {
		if got := binary.LittleEndian.Uint32(payload[12+8*i:]); got != want {
			t.Fatalf("judgment %d encodes image %d, want %d", i, got, want)
		}
	}
}
