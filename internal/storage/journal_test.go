package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lrfcsvm/internal/eval"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// journalBase builds the deterministic base state every journal test replays
// onto: the same call always yields the same collection and (empty) log.
func journalBase(n, dim int) ([]linalg.Vector, *feedbacklog.Log) {
	rng := linalg.NewRNG(97)
	visual := make([]linalg.Vector, n)
	for i := range visual {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.Normal(0, 1)
		}
		visual[i] = v
	}
	return visual, feedbacklog.NewLog(n)
}

// journalSession generates the i-th deterministic feedback session over a
// collection of numImages images.
func journalSession(i, numImages int) feedbacklog.Session {
	j := map[int]feedbacklog.Judgment{
		i % numImages:       feedbacklog.Relevant,
		(i + 3) % numImages: feedbacklog.Irrelevant,
		(i + 5) % numImages: feedbacklog.Relevant,
	}
	return feedbacklog.Session{QueryImage: (i * 7) % numImages, TargetCategory: i % 4, Judgments: j}
}

func sessionsMatch(a, b feedbacklog.Session) bool {
	if a.QueryImage != b.QueryImage || a.TargetCategory != b.TargetCategory || len(a.Judgments) != len(b.Judgments) {
		return false
	}
	for img, j := range a.Judgments {
		if b.Judgments[img] != j {
			return false
		}
	}
	return true
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, visual, replay, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 || replay.TornTailBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", replay)
	}
	for i := 0; i < 5; i++ {
		want := journalSession(i, 8)
		if err := j.AppendSession(want); err != nil {
			t.Fatal(err)
		}
		if _, err := fblog.AddSession(want); err != nil {
			t.Fatal(err)
		}
	}
	batch := []linalg.Vector{{1, 2, 3}, {-4, 5, -6}}
	if err := j.AppendImages(batch); err != nil {
		t.Fatal(err)
	}
	// Post-ingestion session judging a new image.
	extra := feedbacklog.Session{QueryImage: 8, Judgments: map[int]feedbacklog.Judgment{9: feedbacklog.Relevant, 0: feedbacklog.Irrelevant}}
	if err := j.AppendSession(extra); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Records != 7 || st.Sessions != 6 || st.Images != 2 {
		t.Errorf("stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.AppendSession(extra); err == nil {
		t.Error("append after close accepted")
	}

	baseVisual, baseLog := journalBase(8, 3)
	j2, gotVisual, replay, err := OpenJournal(path, baseVisual, baseLog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.Records != 7 || replay.Sessions != 6 || replay.Images != 2 || replay.TornTailBytes != 0 {
		t.Fatalf("replay = %+v", replay)
	}
	if len(gotVisual) != 10 || baseLog.NumImages() != 10 || baseLog.NumSessions() != 6 {
		t.Fatalf("replayed %d descriptors, log %d images/%d sessions", len(gotVisual), baseLog.NumImages(), baseLog.NumSessions())
	}
	for i := 0; i < 5; i++ {
		if !sessionsMatch(baseLog.Sessions()[i], journalSession(i, 8)) {
			t.Errorf("replayed session %d = %+v", i, baseLog.Sessions()[i])
		}
	}
	if !sessionsMatch(baseLog.Sessions()[5], extra) {
		t.Errorf("replayed post-ingestion session = %+v", baseLog.Sessions()[5])
	}
	for bi, want := range batch {
		got := gotVisual[8+bi]
		for d := range want {
			if got[d] != want[d] {
				t.Errorf("replayed descriptor %d = %v, want %v", 8+bi, got, want)
			}
		}
	}
}

// TestJournalEveryByteTruncation cuts the journal at every byte offset of
// its final record and asserts replay recovers exactly the intact prefix —
// never a panic, never a corruption error escaping, never a record invented
// from torn bytes — and that the truncated journal is appendable again.
func TestJournalEveryByteTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// Track record boundaries as the journal grows.
	offsets := []int64{j.Size()}
	for i := 0; i < 3; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.Size())
	}
	if err := j.AppendImages([]linalg.Vector{{7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	offsets = append(offsets, j.Size())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart, end := offsets[len(offsets)-2], offsets[len(offsets)-1]
	if int64(len(raw)) != end {
		t.Fatalf("journal is %d bytes, expected %d", len(raw), end)
	}
	for cut := lastStart; cut <= end; cut++ {
		cutPath := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		jc, _, replay, err := OpenJournal(cutPath, baseVisual, baseLog, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantRecords := len(offsets) - 2 // all but the cut final record
		wantTorn := cut - lastStart
		if cut == end {
			wantRecords, wantTorn = len(offsets)-1, 0
		}
		if replay.Records != wantRecords || replay.TornTailBytes != wantTorn {
			t.Fatalf("cut at %d: replay = %+v, want %d records and %d torn bytes", cut, replay, wantRecords, wantTorn)
		}
		if baseLog.NumSessions() != 3 || (cut == end) != (baseLog.NumImages() == 9) {
			t.Fatalf("cut at %d: log %d sessions over %d images", cut, baseLog.NumSessions(), baseLog.NumImages())
		}
		// The torn tail is gone from disk and the journal accepts appends.
		if info, err := os.Stat(cutPath); err != nil || info.Size() != jc.Size() {
			t.Fatalf("cut at %d: file %d bytes, journal believes %d", cut, info.Size(), jc.Size())
		}
		if err := jc.AppendSession(journalSession(9, 8)); err != nil {
			t.Fatalf("cut at %d: append after truncation: %v", cut, err)
		}
		if err := jc.Close(); err != nil {
			t.Fatal(err)
		}
		reVisual, reLog := journalBase(8, 3)
		if _, _, replay, err = OpenJournal(cutPath, reVisual, reLog, JournalOptions{}); err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		if replay.Records != wantRecords+1 || replay.TornTailBytes != 0 || reLog.NumSessions() != 4 {
			t.Fatalf("cut at %d: replay after repair = %+v (%d sessions)", cut, replay, reLog.NumSessions())
		}
	}
	// Cuts inside the file header or base record reset to an empty journal:
	// no data record can exist without a durable base record before it.
	for cut := int64(0); cut < emptyJournalSize; cut++ {
		cutPath := filepath.Join(dir, fmt.Sprintf("hdr-%d.wal", cut))
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		jc, _, replay, err := OpenJournal(cutPath, baseVisual, baseLog, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("header cut at %d: %v", cut, err)
		}
		if replay.Records != 0 || replay.TornTailBytes != cut || jc.Size() != emptyJournalSize {
			t.Fatalf("header cut at %d: replay = %+v, size %d", cut, replay, jc.Size())
		}
		jc.Close()
	}
}

// TestJournalMidFileCorruptionRejected: a checksum failure is never a torn
// tail — a torn append can only end the file early, so a record whose bytes
// are all present but wrong is genuine corruption and must refuse startup
// (truncating there would silently discard every acknowledged record after
// it and destroy the evidence).
func TestJournalMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{j.Size()}
	for i := 0; i < 4; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A checksum failure with intact records after it refuses startup and
	// leaves the file untouched.
	t.Run("mid-file payload flip", func(t *testing.T) {
		flipped := append([]byte(nil), raw...)
		flipped[offsets[1]+journalRecordHeaderLen+2] ^= 0x01 // inside record 2's payload
		p := filepath.Join(dir, "flip-mid.wal")
		if err := os.WriteFile(p, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		if _, _, _, err := OpenJournal(p, baseVisual, baseLog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("expected ErrCorrupt, got %v", err)
		}
		// Nothing was truncated: the evidence survives for inspection.
		if info, err := os.Stat(p); err != nil || info.Size() != int64(len(raw)) {
			t.Fatalf("corrupt journal was modified: %d bytes, want %d", info.Size(), len(raw))
		}
	})
	// A checksum failure on the FINAL record is the interrupted append
	// whose header sectors became durable but whose payload did not (e.g.
	// zero-filled after a power loss): recover the prefix, truncate the
	// rest — no acknowledged record follows it.
	for name, mangle := range map[string]func([]byte){
		"final payload flip":   func(b []byte) { b[offsets[3]+journalRecordHeaderLen+2] ^= 0x01 },
		"final payload zeroed": func(b []byte) { clearBytes(b[offsets[3]+journalRecordHeaderLen:]) },
	} {
		t.Run(name, func(t *testing.T) {
			mangled := append([]byte(nil), raw...)
			mangle(mangled)
			p := filepath.Join(dir, "mangle-"+fmt.Sprint(len(name))+".wal")
			if err := os.WriteFile(p, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			baseVisual, baseLog := journalBase(8, 3)
			_, _, replay, err := OpenJournal(p, baseVisual, baseLog, JournalOptions{})
			if err != nil {
				t.Fatalf("final-record failure not recovered: %v", err)
			}
			if replay.Records != 3 || replay.TornTailBytes != int64(len(raw))-offsets[3] || baseLog.NumSessions() != 3 {
				t.Fatalf("replay = %+v (%d sessions)", replay, baseLog.NumSessions())
			}
		})
	}
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// TestJournalOversizedBatchChunked: an image batch too large for one record
// (maxRecordLen caps records as a corruption guard) is split across several
// records rather than written as one oversized record that replay would
// reject — which would brick a journal full of acknowledged data.
func TestJournalOversizedBatchChunked(t *testing.T) {
	// Dimension chosen so exactly two descriptors fit one record: a batch
	// of three must produce two records.
	dim := (maxRecordLen - 10) / 16
	base := make(linalg.Vector, dim)
	base[0] = 1
	fblog := feedbacklog.NewLog(1)
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, _, _, err := OpenJournal(path, []linalg.Vector{base}, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]linalg.Vector, 3)
	for i := range batch {
		batch[i] = make(linalg.Vector, dim)
		batch[i][0] = float64(i + 10)
		batch[i][dim-1] = float64(-i)
	}
	if err := j.AppendImages(batch); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 2 || st.Images != 3 {
		t.Fatalf("stats = %+v, want the batch split into 2 records", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reBase := make(linalg.Vector, dim)
	reBase[0] = 1
	reLog := feedbacklog.NewLog(1)
	_, visual, replay, err := OpenJournal(path, []linalg.Vector{reBase}, reLog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 2 || replay.Images != 3 || len(visual) != 4 {
		t.Fatalf("replay = %+v over %d descriptors", replay, len(visual))
	}
	for i := range batch {
		got := visual[1+i]
		if got[0] != float64(i+10) || got[dim-1] != float64(-i) {
			t.Fatalf("replayed descriptor %d corrupted: first %v last %v", i, got[0], got[dim-1])
		}
	}
}

// TestCrashBetweenSnapshotAndCompaction pins the double-apply hole: a crash
// after the snapshot is installed but before the journal is compacted must
// not re-apply the records the snapshot already contains — the snapshot
// records the sequence it covers and replay skips up to it.
func TestCrashBetweenSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")
	snapPath := filepath.Join(dir, "engine.snap")
	visual, fblog := journalBase(8, 3)
	j, visual, _, err := OpenJournal(walPath, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := retrieval.NewEngine(visual, fblog, retrieval.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	commitOn(t, engine, 0, 3)
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	// Snapshot pass captures state + covered sequence and installs the
	// snapshot... and then the process dies before CompactTo runs.
	var mark uint64
	snapVisual, snapLog := engine.SnapshotWith(func() { mark = j.LastSeq() })
	if err := SaveSnapshotAt(snapPath, snapVisual, snapLog, mark); err != nil {
		t.Fatal(err)
	}
	commitOn(t, engine, 3, 5) // post-snapshot records, only in the journal

	// Restart: snapshot + UNCOMPACTED journal. The 4 covered records are
	// skipped, the 2 tail records applied — no duplicated sessions or
	// images.
	crashVisual, crashLog, seq, err := LoadSnapshotAt(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if seq != mark || seq != 4 {
		t.Fatalf("snapshot covers sequence %d, want %d", seq, mark)
	}
	j2, crashVisual, replay, err := OpenJournal(walPath, crashVisual, crashLog, JournalOptions{SnapshotSeq: seq})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.Skipped != 4 || replay.Sessions != 2 || replay.Images != 0 {
		t.Fatalf("replay = %+v, want 4 skipped and 2 applied sessions", replay)
	}
	recovered, err := retrieval.NewEngine(crashVisual, crashLog, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEnginesBitIdentical(t, engine, recovered)
}

// TestFreshJournalAdoptsSnapshotSeq: recreating a deleted journal next to a
// covered snapshot must continue the sequence numbering after the covered
// point — restarting from 1 would make the snapshot's coverage swallow the
// new records on the next replay.
func TestFreshJournalAdoptsSnapshotSeq(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(walPath, visual, fblog.Clone(), JournalOptions{SnapshotSeq: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSession(journalSession(0, 8)); err != nil {
		t.Fatal(err)
	}
	if got := j.LastSeq(); got != 41 {
		t.Fatalf("first record after covered sequence 40 got sequence %d", got)
	}
	j.Close()
	reVisual, reLog := journalBase(8, 3)
	if _, _, replay, err := OpenJournal(walPath, reVisual, reLog, JournalOptions{SnapshotSeq: 40}); err != nil || replay.Sessions != 1 || replay.Skipped != 0 {
		t.Fatalf("replay = %+v, %v", replay, err)
	}
	// A journal compacted past what the snapshot covers is a mismatch, not
	// a silent gap.
	gapVisual, gapLog := journalBase(8, 3)
	if _, _, _, err := OpenJournal(walPath, gapVisual, gapLog, JournalOptions{SnapshotSeq: 7}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("journal starting past the snapshot accepted: %v", err)
	}
}

// TestJournalSemanticCorruptionRejected: records whose checksum verifies but
// whose content contradicts the replayed state are ErrCorrupt, not torn
// tail — truncating them would silently drop acknowledged data.
func TestJournalSemanticCorruptionRejected(t *testing.T) {
	appendRaw := func(t *testing.T, path string, payload []byte) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(frameJournalRecord(payload)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		payload func() []byte
	}{
		{"out-of-range judgment image", func() []byte {
			enc := encodeSession(feedbacklog.Session{QueryImage: 1, Judgments: map[int]feedbacklog.Judgment{99: feedbacklog.Relevant}})
			return append([]byte{journalEntrySession}, enc...)
		}},
		{"out-of-range query image", func() []byte {
			enc := encodeSession(feedbacklog.Session{QueryImage: 99, Judgments: map[int]feedbacklog.Judgment{1: feedbacklog.Relevant}})
			return append([]byte{journalEntrySession}, enc...)
		}},
		{"wrong descriptor dimension", func() []byte {
			payload := []byte{journalEntryImages, journalFlagFinalChunk, 1, 0, 0, 0, 7, 0, 0, 0}
			return append(payload, make([]byte, 8*7)...)
		}},
		{"unknown entry kind", func() []byte { return []byte{0xEE, 1, 2, 3} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "engine.wal")
			visual, fblog := journalBase(8, 3)
			j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendSession(journalSession(0, 8)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			appendRaw(t, path, tc.payload())
			baseVisual, baseLog := journalBase(8, 3)
			if _, _, _, err := OpenJournal(path, baseVisual, baseLog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("expected ErrCorrupt, got %v", err)
			}
		})
	}
}

func TestJournalCompactTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.LastSeq(); got != 0 {
		t.Fatalf("fresh journal LastSeq = %d", got)
	}
	for i := 0; i < 4; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	mark := j.LastSeq()
	if mark != 4 {
		t.Fatalf("LastSeq after 4 appends = %d", mark)
	}
	// Records landing after the mark survive compaction.
	if err := j.AppendSession(journalSession(4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := j.CompactTo(mark); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 5 {
		t.Errorf("stats after compaction = %+v", st)
	}
	if got := j.LastSeq(); got != 5 {
		t.Errorf("LastSeq after compaction = %d, want 5 (sequences never change)", got)
	}
	// Compaction is idempotent: re-compacting a covered sequence drops
	// nothing further.
	if err := j.CompactTo(mark); err != nil {
		t.Fatal(err)
	}
	if err := j.CompactTo(1); err != nil {
		t.Fatal(err)
	}
	if got := j.LastSeq(); got != 5 || j.TailBytes() == 0 {
		t.Errorf("idempotent re-compaction changed the journal: LastSeq %d, tail %d", got, j.TailBytes())
	}
	// Only the post-mark record replays now (the base state must declare
	// the coverage the compaction assumed — a snapshot would record it).
	baseVisual, baseLog := journalBase(8, 3)
	j2, _, replay, err := OpenJournal(path, baseVisual, baseLog, JournalOptions{SnapshotSeq: mark})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 1 || baseLog.NumSessions() != 1 || !sessionsMatch(baseLog.Sessions()[0], journalSession(4, 8)) {
		t.Fatalf("replay after compaction = %+v (%d sessions)", replay, baseLog.NumSessions())
	}
	j2.Close()
	// The surviving journal keeps accepting appends after the file swap.
	if err := j.AppendSession(journalSession(5, 8)); err != nil {
		t.Fatal(err)
	}
	if err := j.CompactTo(j.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if j.Size() != emptyJournalSize || j.TailBytes() != 0 {
		t.Errorf("fully compacted journal is %d bytes, want %d", j.Size(), emptyJournalSize)
	}
	if err := j.CompactTo(j.LastSeq() + 1); err == nil {
		t.Error("compaction past the last appended sequence accepted")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"off", FsyncOff}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("FsyncPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestJournalFsyncPolicies(t *testing.T) {
	visual, fblog := journalBase(8, 3)
	t.Run("always", func(t *testing.T) {
		j, _, _, err := OpenJournal(filepath.Join(t.TempDir(), "a.wal"), visual, fblog.Clone(), JournalOptions{Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i := 0; i < 3; i++ {
			if err := j.AppendSession(journalSession(i, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if st := j.Stats(); st.Syncs != 3 || st.SyncFailures != 0 {
			t.Errorf("stats = %+v, want one sync per record", st)
		}
	})
	t.Run("interval", func(t *testing.T) {
		j, _, _, err := OpenJournal(filepath.Join(t.TempDir(), "i.wal"), visual, fblog.Clone(), JournalOptions{Fsync: FsyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if err := j.AppendSession(journalSession(0, 8)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for j.Stats().Syncs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("background syncer never flushed")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("off", func(t *testing.T) {
		j, _, _, err := OpenJournal(filepath.Join(t.TempDir(), "o.wal"), visual, fblog.Clone(), JournalOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSession(journalSession(0, 8)); err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Syncs != 0 {
			t.Errorf("FsyncOff synced %d times", st.Syncs)
		}
		// Close still flushes so a graceful shutdown loses nothing.
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Syncs != 1 {
			t.Errorf("Close synced %d times, want 1", st.Syncs)
		}
	})
}

func TestOpenJournalValidation(t *testing.T) {
	visual, fblog := journalBase(4, 2)
	path := filepath.Join(t.TempDir(), "engine.wal")
	if _, _, _, err := OpenJournal(path, nil, fblog, JournalOptions{}); err == nil {
		t.Error("empty collection accepted")
	}
	if _, _, _, err := OpenJournal(path, visual, nil, JournalOptions{}); err == nil {
		t.Error("nil log accepted")
	}
	if _, _, _, err := OpenJournal(path, visual, feedbacklog.NewLog(2), JournalOptions{}); err == nil {
		t.Error("mismatched log accepted")
	}
	// A non-journal file of the right magic is rejected, not replayed.
	logPath := filepath.Join(t.TempDir(), "log.bin")
	if err := SaveLog(logPath, sampleLog(t)); err != nil {
		t.Fatal(err)
	}
	visual10, fblog10 := journalBase(10, 2)
	if _, _, _, err := OpenJournal(logPath, visual10, fblog10, JournalOptions{}); err == nil {
		t.Error("log store accepted as journal")
	}
}

// TestSnapshotterCompactionLoop drives the full durability loop at the
// engine level: journal everything, snapshot + compact mid-stream, keep
// mutating, "crash", and verify snapshot + journal-tail replay reconstructs
// an engine whose rankings — and therefore MAPs — are bit-identical to the
// pre-crash in-memory engine.
func TestSnapshotterCompactionLoop(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")
	snapPath := filepath.Join(dir, "engine.snap")

	visual, fblog := journalBase(16, 3)
	j, visual, _, err := OpenJournal(walPath, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := retrieval.NewEngine(visual, fblog, retrieval.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshotter(j, engine.SnapshotWith, SnapshotterConfig{SnapshotPath: snapPath, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	commit := func(i int) {
		t.Helper()
		src := journalSession(i, 16)
		s, err := engine.StartSession(src.QueryImage)
		if err != nil {
			t.Fatal(err)
		}
		for img, jd := range src.Judgments {
			if err := s.Judge(img, jd == feedbacklog.Relevant); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		commit(i)
	}
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{0.5, -1, 2}, {3, 0.25, -2}}); err != nil {
		t.Fatal(err)
	}
	if err := snap.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if j.TailBytes() != 0 {
		t.Fatalf("journal not compacted: %d tail bytes", j.TailBytes())
	}
	if st := snap.Stats(); st.Snapshots != 1 || st.LastSnapshotUnix == 0 {
		t.Errorf("snapshotter stats = %+v", st)
	}
	// Keep mutating after the snapshot: these records live only in the
	// journal tail.
	for i := 3; i < 6; i++ {
		commit(i)
	}
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{-1, -1, -1}}); err != nil {
		t.Fatal(err)
	}
	commit(6)

	// Crash: no Close, no final snapshot. Restart from snapshot + journal.
	crashVisual, crashLog, seq, err := LoadSnapshotAt(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	j2, crashVisual, replay, err := OpenJournal(walPath, crashVisual, crashLog, JournalOptions{SnapshotSeq: seq})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if replay.Sessions != 4 || replay.Images != 1 || replay.Skipped != 0 {
		t.Fatalf("replay = %+v, want 4 sessions and 1 image from the tail", replay)
	}
	recovered, err := retrieval.NewEngine(crashVisual, crashLog, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEnginesBitIdentical(t, engine, recovered)
}

// assertEnginesBitIdentical compares two engines' full rankings (initial
// queries and every feedback scheme) score for score, and the MAPs computed
// from them. Bit-identical rankings imply bit-identical MAPs; both are
// asserted so a regression reports at the level the paper's evaluation uses.
func assertEnginesBitIdentical(t *testing.T, a, b *retrieval.Engine) {
	t.Helper()
	if a.NumImages() != b.NumImages() || a.NumLogSessions() != b.NumLogSessions() {
		t.Fatalf("engines differ in shape: %d/%d images, %d/%d sessions",
			a.NumImages(), b.NumImages(), a.NumLogSessions(), b.NumLogSessions())
	}
	n := a.NumImages()
	rank := func(e *retrieval.Engine, query int, kind retrieval.SchemeKind) []retrieval.Result {
		t.Helper()
		if kind == "" {
			rs, err := e.InitialQuery(context.Background(), query, n)
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		s, err := e.StartSession(query)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Judge(query, true); err != nil {
			t.Fatal(err)
		}
		if err := s.Judge((query+1)%n, false); err != nil {
			t.Fatal(err)
		}
		rs, err := s.Refine(context.Background(), kind, n)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for _, query := range []int{0, 3, n - 1} {
		for _, kind := range []retrieval.SchemeKind{"", retrieval.SchemeEuclidean, retrieval.SchemeRFSVM, retrieval.SchemeLRF2SVMs, retrieval.SchemeLRFCSVM} {
			ra, rb := rank(a, query, kind), rank(b, query, kind)
			if len(ra) != len(rb) {
				t.Fatalf("query %d scheme %q: %d vs %d results", query, kind, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("query %d scheme %q rank %d: live %+v, recovered %+v", query, kind, i, ra[i], rb[i])
				}
			}
			if mapA, mapB := rankingMAP(ra, n), rankingMAP(rb, n); mapA != mapB {
				t.Fatalf("query %d scheme %q: MAP %v vs %v", query, kind, mapA, mapB)
			}
		}
	}
}

// rankingMAP computes a MAP over a ranking with a synthetic relevance
// labeling (every 4th image relevant) via the eval package's metrics — the
// exact values are irrelevant, their bit-equality across engines is what the
// crash-recovery tests pin.
func rankingMAP(rs []retrieval.Result, n int) float64 {
	scores := make([]float64, n)
	relevant := make([]bool, n)
	for rank, r := range rs {
		scores[r.Image] = float64(n - rank)
		relevant[r.Image] = r.Image%4 == 0
	}
	return eval.MeanAveragePrecision([]float64{
		eval.PrecisionAt(scores, relevant, 10),
		eval.PrecisionAt(scores, relevant, 20),
		eval.PrecisionAt(scores, relevant, n),
	})
}

// TestEngineJournalOrderMatchesLog interleaves commits and ingestions and
// verifies the journal replays to the same log order the engine holds —
// the property the under-lock sink exists for.
func TestEngineJournalOrderMatchesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, visual, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := retrieval.NewEngine(visual, fblog, retrieval.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s, err := engine.StartSession(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Judge((i+2)%8, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := engine.AddImages(context.Background(), []linalg.Vector{{float64(i), 1, 2}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveVisual, liveLog := engine.SnapshotWith(nil)

	baseVisual, baseLog := journalBase(8, 3)
	j2, gotVisual, _, err := OpenJournal(path, baseVisual, baseLog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	j.Close()
	if len(gotVisual) != len(liveVisual) || baseLog.NumSessions() != liveLog.NumSessions() {
		t.Fatalf("replayed %d images/%d sessions, live %d/%d",
			len(gotVisual), baseLog.NumSessions(), len(liveVisual), liveLog.NumSessions())
	}
	for i, want := range liveLog.Sessions() {
		if !sessionsMatch(baseLog.Sessions()[i], want) {
			t.Errorf("replayed session %d out of order: %+v vs %+v", i, baseLog.Sessions()[i], want)
		}
	}
}

// TestEngineJournalFailureFailsMutation: a sink error must fail the commit
// or ingestion and leave the in-memory state untouched — the engine must
// never serve state it could not make durable.
func TestEngineJournalFailureFailsMutation(t *testing.T) {
	visual, fblog := journalBase(8, 3)
	sink := &failingSink{}
	engine, err := retrieval.NewEngine(visual, fblog, retrieval.Options{Journal: sink})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.StartSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Judge(1, true); err != nil {
		t.Fatal(err)
	}
	sink.fail = true
	if err := s.Commit(context.Background()); err == nil {
		t.Fatal("commit succeeded with a failing journal")
	}
	if engine.NumLogSessions() != 0 {
		t.Errorf("failed commit mutated the log: %d sessions", engine.NumLogSessions())
	}
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{1, 2, 3}}); err == nil {
		t.Fatal("ingestion succeeded with a failing journal")
	}
	if engine.NumImages() != 8 {
		t.Errorf("failed ingestion mutated the collection: %d images", engine.NumImages())
	}
	// The session is still committable once the journal recovers.
	sink.fail = false
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if engine.NumLogSessions() != 1 || sink.sessions != 1 {
		t.Errorf("recovered commit: %d log sessions, %d journaled", engine.NumLogSessions(), sink.sessions)
	}
}

type failingSink struct {
	fail     bool
	sessions int
	images   int
}

func (f *failingSink) AppendSession(feedbacklog.Session) error {
	if f.fail {
		return fmt.Errorf("sink: injected failure")
	}
	f.sessions++
	return nil
}

func (f *failingSink) AppendImages(d []linalg.Vector) error {
	if f.fail {
		return fmt.Errorf("sink: injected failure")
	}
	f.images += len(d)
	return nil
}

// BenchmarkCommitJournal measures the journal's overhead on the feedback
// commit path under each fsync policy (reported in EXPERIMENTS.md).
func BenchmarkCommitJournal(b *testing.B) {
	run := func(b *testing.B, journal func(b *testing.B) retrieval.JournalSink) {
		visual, fblog := journalBase(256, 16)
		opts := retrieval.Options{}
		if journal != nil {
			opts.Journal = journal(b)
		}
		engine, err := retrieval.NewEngine(visual, fblog, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := engine.StartSession(i % 256)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Judge((i+1)%256, true); err != nil {
				b.Fatal(err)
			}
			if err := s.Judge((i+7)%256, false); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	open := func(fsync FsyncPolicy) func(b *testing.B) retrieval.JournalSink {
		return func(b *testing.B) retrieval.JournalSink {
			visual, fblog := journalBase(256, 16)
			j, _, _, err := OpenJournal(filepath.Join(b.TempDir(), "bench.wal"), visual, fblog, JournalOptions{Fsync: fsync})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { j.Close() })
			return j
		}
	}
	b.Run("none", func(b *testing.B) { run(b, nil) })
	b.Run("fsync-off", func(b *testing.B) { run(b, open(FsyncOff)) })
	b.Run("fsync-interval", func(b *testing.B) { run(b, open(FsyncInterval)) })
	b.Run("fsync-always", func(b *testing.B) { run(b, open(FsyncAlways)) })
}

// TestJournalCoveredTailLossDoesNotReuseSequences pins the sequence-reuse
// hole: when a power loss drops a journal tail the snapshot already covers
// (the snapshot fsyncs; an interval-fsync journal may lag), new records
// must continue after the snapshot's covered sequence — reusing covered
// sequences would make the next replay silently skip freshly acknowledged
// records.
func TestJournalCoveredTailLossDoesNotReuseSequences(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{j.Size()}
	for i := 0; i < 3; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.Size())
	}
	// Snapshot covers seq 3... and the power loss then drops records 2-3
	// from the journal (their pages were never flushed).
	covered := j.LastSeq()
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:offsets[1]], 0o644); err != nil {
		t.Fatal(err)
	}

	reVisual, reLog := journalBase(8, 3)
	j2, _, replay, err := OpenJournal(path, reVisual, reLog, JournalOptions{Fsync: FsyncOff, SnapshotSeq: covered})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 || reLog.NumSessions() != 0 {
		t.Fatalf("covered records re-applied: %+v", replay)
	}
	// The retained tail was entirely covered: the journal must have moved
	// its sequence past the snapshot before accepting new records.
	if got := j2.LastSeq(); got != covered {
		t.Fatalf("LastSeq after covered-tail loss = %d, want %d", got, covered)
	}
	if err := j2.AppendSession(journalSession(9, 8)); err != nil {
		t.Fatal(err)
	}
	if got := j2.LastSeq(); got != covered+1 {
		t.Fatalf("new record got sequence %d, want %d", got, covered+1)
	}
	j2.Close()
	finVisual, finLog := journalBase(8, 3)
	if _, _, replay, err := OpenJournal(path, finVisual, finLog, JournalOptions{SnapshotSeq: covered}); err != nil || replay.Sessions != 1 {
		t.Fatalf("acknowledged post-loss record was skipped: %+v, %v", replay, err)
	}
}

// TestJournalTornChunkGroupDiscarded: a crash between the chunk records of
// one oversized image batch must discard the whole (unacknowledged) group —
// replaying a partial batch would surface a collection state that never
// existed and that a client retry would then duplicate.
func TestJournalTornChunkGroupDiscarded(t *testing.T) {
	dim := (maxRecordLen - 10) / 16 // two descriptors per record
	base := make(linalg.Vector, dim)
	base[0] = 1
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, _, _, err := OpenJournal(path, []linalg.Vector{base}, feedbacklog.NewLog(1), JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSession(feedbacklog.Session{QueryImage: 0, Judgments: map[int]feedbacklog.Judgment{0: feedbacklog.Relevant}}); err != nil {
		t.Fatal(err)
	}
	preBatch := j.Size()
	batch := make([]linalg.Vector, 3) // 2 chunk records
	for i := range batch {
		batch[i] = make(linalg.Vector, dim)
		batch[i][0] = float64(i)
	}
	if err := j.AppendImages(batch); err != nil {
		t.Fatal(err)
	}
	firstChunkEnd := preBatch + (journalRecordHeaderLen + 10 + 8*2*int64(dim))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash after the first chunk hit the disk: the final chunk is gone.
	if err := os.WriteFile(path, raw[:firstChunkEnd], 0o644); err != nil {
		t.Fatal(err)
	}
	reBase := make(linalg.Vector, dim)
	reBase[0] = 1
	reLog := feedbacklog.NewLog(1)
	_, visual, replay, err := OpenJournal(path, []linalg.Vector{reBase}, reLog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(visual) != 1 || replay.Images != 0 || replay.Sessions != 1 {
		t.Fatalf("partial batch surfaced: %d descriptors, replay %+v", len(visual), replay)
	}
	if replay.TornTailBytes != firstChunkEnd-preBatch {
		t.Fatalf("torn bytes = %d, want the whole first chunk (%d)", replay.TornTailBytes, firstChunkEnd-preBatch)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != preBatch {
		t.Fatalf("torn group not truncated: %d bytes, want %d", info.Size(), preBatch)
	}
}

// TestJournalZeroFilledRegions: an all-zero record header is torn tail only
// when the zeros run to the end of the file (the region a power loss
// leaves); a zeroed header with real data after it is a damaged
// acknowledged record and must refuse startup rather than silently discard
// everything that follows.
func TestJournalZeroFilledRegions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{j.Size()}
	for i := 0; i < 3; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.Size())
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("zero tail", func(t *testing.T) {
		// Records 2-3 zeroed through EOF: the post-power-loss shape.
		zeroed := append([]byte(nil), raw...)
		clearBytes(zeroed[offsets[1]:])
		p := filepath.Join(dir, "zero-tail.wal")
		if err := os.WriteFile(p, zeroed, 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		_, _, replay, err := OpenJournal(p, baseVisual, baseLog, JournalOptions{})
		if err != nil {
			t.Fatalf("zero tail not recovered: %v", err)
		}
		if replay.Records != 1 || replay.TornTailBytes != int64(len(raw))-offsets[1] || baseLog.NumSessions() != 1 {
			t.Fatalf("replay = %+v (%d sessions)", replay, baseLog.NumSessions())
		}
	})
	t.Run("zero header mid-file", func(t *testing.T) {
		// Only record 2's header zeroed; record 3 is intact after it.
		zeroed := append([]byte(nil), raw...)
		clearBytes(zeroed[offsets[1] : offsets[1]+journalRecordHeaderLen])
		p := filepath.Join(dir, "zero-mid.wal")
		if err := os.WriteFile(p, zeroed, 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		if _, _, _, err := OpenJournal(p, baseVisual, baseLog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("expected ErrCorrupt, got %v", err)
		}
		if info, err := os.Stat(p); err != nil || info.Size() != int64(len(raw)) {
			t.Fatalf("corrupt journal was modified")
		}
	})
	t.Run("zero base sequence", func(t *testing.T) {
		forged := append([]byte(nil), raw[:journalHeaderLen]...)
		forged = append(forged, frameJournalRecord(baseRecordPayload(0))...)
		p := filepath.Join(dir, "base-zero.wal")
		if err := os.WriteFile(p, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		baseVisual, baseLog := journalBase(8, 3)
		if _, _, _, err := OpenJournal(p, baseVisual, baseLog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("expected ErrCorrupt for base sequence 0, got %v", err)
		}
	})
}
