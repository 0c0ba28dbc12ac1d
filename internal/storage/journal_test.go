package storage

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lrfcsvm/internal/faultinject"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// journalBase builds the deterministic base state every journal test replays
// onto: the same call always yields the same store and (empty) log.
func journalBase(n, dim int) (*kernel.ShardedSet, *feedbacklog.Log) {
	return kernel.NewShardedSet(randomRows(n, dim, 97), 0), feedbacklog.NewLog(n)
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

// The scripted tests TestJournalMatchesModel replaced, each pinned to a seed
// and a cell that pass through what it was written for. Every crash closes
// the journal first and checks what RoundTrip checked of Close: it flushes,
// a second Close does nothing, and an append after it is refused.
func TestJournalRoundTrip(t *testing.T)           { journalPin(t, 1, "off", "sessions-and-images") }
func TestJournalEveryByteTruncation(t *testing.T) { journalPin(t, 2, "off", "cut-record") }
func TestJournalCompactTo(t *testing.T)           { journalPin(t, 1, "off", "kept-tail", "skipped") }
func TestFreshJournalAdoptsSnapshotSeq(t *testing.T) {
	journalPin(t, 2, "off", "fresh-at-mark", "stale-snapshot")
}
func TestJournalWrapSurvivesCompaction(t *testing.T) {
	journalPin(t, 1, "always", "fault-after-compaction")
}
func TestJournalCoveredTailLossDoesNotReuseSequences(t *testing.T) {
	journalPin(t, 1, "off", "covered-tail-lost")
}
func TestJournalTornWriteWithFailedRollbackPoisonsAndReplays(t *testing.T) {
	journalPin(t, 1, "always", "poisoned")
}
func TestJournalMidFileCorruptionRejected(t *testing.T) {
	t.Run("mid-file payload flip", func(t *testing.T) { journalPin(t, 4, "off", "flipped-record") })
	t.Run("final payload flip", func(t *testing.T) { journalPin(t, 1, "always", "final-checksum") })
	t.Run("final payload zeroed", func(t *testing.T) { journalPin(t, 2, "off", "final-checksum") })
}

// openChunked opens the journal at path over one image whose dimension fits
// exactly two descriptors in a record, and returns a batch of three, which
// spans two chunk records.
func openChunked(t *testing.T, path string) (*Journal, *kernel.ShardedSet, ReplayStats, []linalg.Vector) {
	t.Helper()
	dim := (maxRecordLen - 10) / 16
	base := make(linalg.Vector, dim)
	base[0] = 1
	j, set, replay, err := OpenJournalOver(path, kernel.NewShardedSet([]linalg.Vector{base}, 0), feedbacklog.NewLog(1), JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	batch := make([]linalg.Vector, 3)
	for i := range batch {
		batch[i] = make(linalg.Vector, dim)
		batch[i][0], batch[i][dim-1] = float64(i+10), float64(-i)
	}
	return j, set, replay, batch
}

// TestJournalOversizedBatchChunked: an image batch too large for one record
// (maxRecordLen caps records as a corruption guard) is split across several
// records rather than written as one oversized record that replay would
// reject — which would brick a journal full of acknowledged data.
func TestJournalOversizedBatchChunked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, _, _, batch := openChunked(t, path)
	if err := j.AppendImages(batch); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 2 || st.Images != 3 {
		t.Fatalf("stats = %+v, want the batch split into 2 records", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, set, replay, _ := openChunked(t, path)
	if replay.Records != 2 || replay.Images != 3 || set.Len() != 4 {
		t.Fatalf("replay = %+v over %d descriptors", replay, set.Len())
	}
	for i, want := range batch {
		if !linalg.Vector(set.Point(1+i)).Equal(want, 0) {
			t.Fatalf("replayed descriptor %d corrupted", i)
		}
	}
}

// TestJournalSemanticCorruptionRejected: records whose checksum verifies but
// whose content contradicts the replayed state are ErrCorrupt, not torn
// tail — truncating them would silently drop acknowledged data.
func TestJournalSemanticCorruptionRejected(t *testing.T) {
	session := func(query, judged int) []byte {
		s := feedbacklog.Session{QueryImage: query, Judgments: map[int]feedbacklog.Judgment{judged: feedbacklog.Relevant}}
		return append([]byte{journalEntrySession}, encodeSession(s)...)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"out-of-range judgment image", session(1, 99)},
		{"out-of-range query image", session(99, 1)},
		{"wrong descriptor dimension", append([]byte{journalEntryImages, journalFlagFinalChunk, 1, 0, 0, 0, 7, 0, 0, 0}, make([]byte, 8*7)...)},
		{"unknown entry kind", []byte{0xEE, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "engine.wal")
			set, fblog := journalBase(8, 3)
			j, _, _, err := OpenJournalOver(path, set, fblog, JournalOptions{Fsync: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendSession(journalSession(0, 8)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(raw, frameJournalRecord(tc.payload)...), 0o644); err != nil {
				t.Fatal(err)
			}
			baseSet, baseLog := journalBase(8, 3)
			if _, _, _, err := OpenJournalOver(path, baseSet, baseLog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("expected ErrCorrupt, got %v", err)
			}
		})
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

// TestJournalFsyncPolicies: the driver's cells pin always and off; the
// background syncer of interval is checked here.
func TestJournalFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) { journalPin(t, 1, "always", "synced-append") })
	t.Run("off", func(t *testing.T) { journalPin(t, 1, "off", "synced-on-demand", "synced-at-close") })
	t.Run("interval", func(t *testing.T) {
		set, fblog := journalBase(8, 3)
		j, _, _, err := OpenJournalOver(filepath.Join(t.TempDir(), "i.wal"), set, fblog, JournalOptions{Fsync: FsyncInterval})
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
}

func TestOpenJournalValidation(t *testing.T) {
	set, fblog := journalBase(4, 2)
	path := filepath.Join(t.TempDir(), "engine.wal")
	if _, _, _, err := OpenJournalOver(path, kernel.NewShardedSet(nil, 0), fblog, JournalOptions{}); err == nil {
		t.Error("empty collection accepted")
	}
	if _, _, _, err := OpenJournalOver(path, set, nil, JournalOptions{}); err == nil {
		t.Error("nil log accepted")
	}
	if _, _, _, err := OpenJournalOver(path, set, feedbacklog.NewLog(2), JournalOptions{}); err == nil {
		t.Error("mismatched log accepted")
	}
	// A non-journal file of the right magic is rejected, not replayed.
	logPath := filepath.Join(t.TempDir(), "log.bin")
	logged := feedbacklog.NewLog(10)
	if _, err := logged.AddSession(journalSession(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := SaveLog(logPath, logged); err != nil {
		t.Fatal(err)
	}
	set10, fblog10 := journalBase(10, 2)
	if _, _, _, err := OpenJournalOver(logPath, set10, fblog10, JournalOptions{}); err == nil {
		t.Error("log store accepted as journal")
	}
}

// BenchmarkCommitJournal measures the journal's overhead on the feedback
// commit path under each fsync policy (CI's race job uploads its output).
func BenchmarkCommitJournal(b *testing.B) {
	run := func(b *testing.B, journal func(b *testing.B) retrieval.JournalSink) {
		set, fblog := journalBase(256, 16)
		opts := retrieval.Options{}
		if journal != nil {
			opts.Journal = journal(b)
		}
		engine, err := retrieval.NewEngineOver(set, fblog, opts)
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
			set, fblog := journalBase(256, 16)
			j, _, _, err := OpenJournalOver(filepath.Join(b.TempDir(), "bench.wal"), set, fblog, JournalOptions{Fsync: fsync})
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

// Concurrent appends racing injected write faults (run with -race): every
// acked record replays exactly once, in the order its writer appended it, and
// no refused record comes back.
func TestJournalConcurrentAppendsUnderTransientFaults(t *testing.T) {
	in := faultinject.New(faultinject.Plan{})
	path := filepath.Join(t.TempDir(), "engine.wal")
	set, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournalOver(path, set, fblog, JournalOptions{Fsync: FsyncAlways, WrapFile: func(f *os.File) File { return in.Wrap(f) }})
	if err != nil {
		t.Fatal(err)
	}
	failed := []int{3, 7, 11, 19, 23, 29} // an append is one write
	in.SetPlan(faultinject.Plan{FailWrites: failed})
	const writers, perWriter = 4, 8
	acked := make([]bool, writers*perWriter) // a writer sets only its own
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				s := journalSession(i, 8)
				s.TargetCategory = i // tells the sessions apart
				err := j.AppendSession(s)
				if acked[i] = err == nil; err != nil && !errors.Is(err, faultinject.ErrInjected) {
					t.Errorf("append %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reSet, reLog := journalBase(8, 3)
	j2, _, replay, err := OpenJournalOver(path, reSet, reLog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if want := writers*perWriter - len(failed); replay.Sessions != want {
		t.Fatalf("replayed %d sessions, %d were acked", replay.Sessions, want)
	}
	last := map[int]int{}
	for _, s := range reLog.Sessions() {
		i := s.TargetCategory
		if prev, ok := last[i/perWriter]; !acked[i] || (ok && prev >= i) {
			t.Errorf("session %d replayed after session %d of its writer (acked: %v)", i, prev, acked[i])
		}
		last[i/perWriter], acked[i] = i, false
	}
}

// TestJournalTornChunkGroupDiscarded: a crash between the chunk records of
// one oversized image batch must discard the whole (unacknowledged) group —
// replaying a partial batch would surface a collection state that never
// existed and that a client retry would then duplicate.
func TestJournalTornChunkGroupDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, _, _, batch := openChunked(t, path)
	if err := j.AppendSession(feedbacklog.Session{QueryImage: 0, Judgments: map[int]feedbacklog.Judgment{0: feedbacklog.Relevant}}); err != nil {
		t.Fatal(err)
	}
	preBatch := j.Stats().Bytes
	if err := j.AppendImages(batch); err != nil {
		t.Fatal(err)
	}
	firstChunkEnd := preBatch + journalRecordHeaderLen + 10 + 8*2*int64(len(batch[0]))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash after the first chunk hit the disk: the final chunk is gone.
	if err := os.Truncate(path, firstChunkEnd); err != nil {
		t.Fatal(err)
	}
	_, set, replay, _ := openChunked(t, path)
	if set.Len() != 1 || replay.Images != 0 || replay.Sessions != 1 {
		t.Fatalf("partial batch surfaced: %d descriptors, replay %+v", set.Len(), replay)
	}
	if replay.TornTailBytes != firstChunkEnd-preBatch {
		t.Fatalf("torn bytes = %d, want the whole first chunk (%d)", replay.TornTailBytes, firstChunkEnd-preBatch)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != preBatch {
		t.Fatalf("torn group not truncated: %d bytes, want %d", info.Size(), preBatch)
	}
}

// TestJournalZeroFilledRegions: the driver pins a zero-filled tail and a
// zeroed header before intact records; a base record of sequence 0, which no
// writer produces, is refused.
func TestJournalZeroFilledRegions(t *testing.T) {
	t.Run("zero tail", func(t *testing.T) { journalPin(t, 2, "off", "zero-tail") })
	t.Run("zero header mid-file", func(t *testing.T) { journalPin(t, 3, "always", "zeroed-header") })
	t.Run("zero base sequence", func(t *testing.T) {
		var forged bytes.Buffer
		if err := writeHeader(&forged, KindJournal); err != nil {
			t.Fatal(err)
		}
		forged.Write(frameJournalRecord(baseRecordPayload(0)))
		p := filepath.Join(t.TempDir(), "base-zero.wal")
		if err := os.WriteFile(p, forged.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		set, fblog := journalBase(8, 3)
		if _, _, _, err := OpenJournalOver(p, set, fblog, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("expected ErrCorrupt for base sequence 0, got %v", err)
		}
	})
}
