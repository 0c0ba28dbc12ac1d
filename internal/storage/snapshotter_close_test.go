package storage

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// The graceful-shutdown sequence: Close stops the background loop (and any
// pass a racing tick would start), yet the explicit final SnapshotNow that
// follows must still work — cbirserver relies on exactly this order.
func TestSnapshotterCloseThenFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	set, fblog := journalBase(8, 3)
	j, set, _, err := OpenJournalOver(filepath.Join(dir, "engine.wal"), set, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	engine, err := retrieval.NewEngineOver(set, fblog, retrieval.Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshotter(j, engine.SnapshotWith, SnapshotterConfig{
		SnapshotPath: filepath.Join(dir, "engine.snap"),
		Interval:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AddImages(context.Background(), []linalg.Vector{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	snap.Close()
	snap.Close() // idempotent

	// A background-initiated pass after Close must decline...
	snap.backgroundPass()
	if st := snap.Stats(); st.Snapshots != 0 {
		t.Fatalf("background pass ran after Close: %+v", st)
	}
	// ...while the explicit final snapshot still runs and compacts.
	if err := snap.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if st := snap.Stats(); st.Snapshots != 1 {
		t.Fatalf("final snapshot not recorded: %+v", st)
	}
	if j.TailBytes() != 0 {
		t.Fatalf("final snapshot did not compact the journal: %d tail bytes", j.TailBytes())
	}
}

// TestSnapshotterTriggers: the size and time triggers of due() are what
// bound replay time behind -journal-max-bytes and -snapshot-interval.
func TestSnapshotterTriggers(t *testing.T) {
	const interval = time.Minute
	record := int64(journalRecordHeaderLen + 1 + len(encodeSession(journalSession(0, 8))))
	for _, tc := range []struct {
		name     string
		records  int
		maxBytes int64
		elapsed  time.Duration
		want     bool
	}{
		{"size trigger at MaxJournalBytes", 2, 2 * record, 0, true},
		{"size trigger a byte short", 2, 2*record + 1, 0, false},
		{"time trigger after Interval", 1, -1, interval, true},
		{"time trigger before Interval", 1, -1, interval - 1, false},
		{"empty journal never fires", 0, 1, 10 * interval, false},
		{"negative MaxJournalBytes disables the size trigger", 4, -1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			set, fblog := journalBase(8, 3)
			j, _, _, err := OpenJournalOver(filepath.Join(dir, "engine.wal"), set, fblog, JournalOptions{Fsync: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			for i := 0; i < tc.records; i++ {
				if err := j.AppendSession(journalSession(i, 8)); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Unix(1e9, 0)
			var elapsed atomic.Int64 // the clock; the loop reads it only on a tick, seconds away
			snap, err := NewSnapshotter(j, func(func()) (*kernel.ShardedSet, *feedbacklog.Log) { return nil, nil }, SnapshotterConfig{
				SnapshotPath:    filepath.Join(dir, "engine.snap"),
				Interval:        interval,
				MaxJournalBytes: tc.maxBytes,
				now:             func() time.Time { return start.Add(time.Duration(elapsed.Load())) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			elapsed.Store(int64(tc.elapsed))
			if got := snap.due(); got != tc.want {
				t.Errorf("due() = %v with %d tail bytes, MaxJournalBytes %d, %v elapsed; want %v", got, j.TailBytes(), tc.maxBytes, tc.elapsed, tc.want)
			}
		})
	}
}
