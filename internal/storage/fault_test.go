package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lrfcsvm/internal/faultinject"
)

// The wrapper must keep satisfying the journal's file surface; a drift in
// either interface should fail compilation here, not at a test's WrapFile
// call site.
var _ File = (*faultinject.File)(nil)

// openFaultJournal opens a fresh journal wired through a fault injector
// with no faults armed yet; tests arm a plan afterwards so operation
// indices count from the first operation they care about.
func openFaultJournal(t *testing.T, opts JournalOptions) (*Journal, *faultinject.Injector) {
	t.Helper()
	in := faultinject.New(faultinject.Plan{})
	opts.WrapFile = func(f *os.File) File { return in.Wrap(f) }
	path := filepath.Join(t.TempDir(), "engine.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, opts)
	if err != nil {
		t.Fatal(err)
	}
	in.SetPlan(faultinject.Plan{})
	return j, in
}

// reopenClean replays the journal file with no injector and returns what
// it recovered.
func reopenClean(t *testing.T, path string) (*Journal, ReplayStats) {
	t.Helper()
	visual, fblog := journalBase(8, 3)
	j, _, replay, err := OpenJournal(path, visual, fblog, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return j, replay
}

// A transient fsync fault must be absorbed by the retry loop: the caller
// is acknowledged once, and exactly one copy of the record is durable.
func TestJournalTransientFsyncRecoveredByRetry(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{
		Fsync:        FsyncAlways,
		RetryAppends: 3,
		RetryBackoff: time.Millisecond,
	})
	path := j.path
	// The append's first two fsyncs fail, the third succeeds.
	in.SetPlan(faultinject.Plan{FailSyncFrom: 1, FailSyncCount: 2})

	want := journalSession(0, 8)
	if err := j.AppendSession(want); err != nil {
		t.Fatalf("transient fsync fault not recovered: %v", err)
	}
	st := j.Stats()
	if st.AppendRetries != 2 {
		t.Errorf("AppendRetries = %d, want 2", st.AppendRetries)
	}
	if st.SyncFailures != 2 {
		t.Errorf("SyncFailures = %d, want 2", st.SyncFailures)
	}
	if st.Records != 1 || st.Sessions != 1 {
		t.Errorf("stats after recovery = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay := reopenClean(t, path)
	defer j2.Close()
	if replay.Records != 1 || replay.Sessions != 1 || replay.TornTailBytes != 0 {
		t.Fatalf("replay after recovered fault = %+v, want exactly the acked record", replay)
	}
}

// A transient clean write failure recovers the same way.
func TestJournalTransientWriteFailureRecoveredByRetry(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{
		Fsync:        FsyncOff,
		RetryAppends: 2,
		RetryBackoff: time.Millisecond,
	})
	path := j.path
	in.SetPlan(faultinject.Plan{FailWrites: []int{1}})

	if err := j.AppendSession(journalSession(1, 8)); err != nil {
		t.Fatalf("transient write fault not recovered: %v", err)
	}
	if st := j.Stats(); st.AppendRetries != 1 || st.Records != 1 {
		t.Errorf("stats = %+v, want 1 retry and 1 record", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, replay := reopenClean(t, path)
	defer j2.Close()
	if replay.Records != 1 || replay.Sessions != 1 {
		t.Fatalf("replay = %+v", replay)
	}
}

// When the fault persists past the retry budget the caller must see the
// failure with the journal rolled back: nothing acked, nothing on disk.
func TestJournalRetryExhaustionFailsWithRollback(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{
		Fsync:        FsyncAlways,
		RetryAppends: 2,
		RetryBackoff: time.Millisecond,
	})
	path := j.path
	preSize := j.Stats().Bytes
	// Every fsync fails: 1 attempt + 2 retries, all shot down.
	in.SetPlan(faultinject.Plan{FailSyncFrom: 1})

	err := j.AppendSession(journalSession(2, 8))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append error = %v, want the injected fault", err)
	}
	st := j.Stats()
	if st.AppendRetries != 2 {
		t.Errorf("AppendRetries = %d, want the full budget of 2", st.AppendRetries)
	}
	if st.Records != 0 || st.Bytes != preSize {
		t.Errorf("failed append left state %+v (pre-append size %d)", st, preSize)
	}
	// The journal rolled back cleanly, so it is not poisoned: the next
	// append (faults cleared) must succeed.
	in.SetPlan(faultinject.Plan{})
	if err := j.AppendSession(journalSession(3, 8)); err != nil {
		t.Fatalf("append after rolled-back failure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay := reopenClean(t, path)
	defer j2.Close()
	if replay.Records != 1 || replay.Sessions != 1 {
		t.Fatalf("replay = %+v, want only the later acked record", replay)
	}
}

// A torn write whose rollback also fails poisons the journal (it can no
// longer promise disk == acked state) and zeroes the failed record's extent,
// and a clean reopen must classify it as a torn tail and truncate it away —
// also when the tear is the whole record, which would otherwise replay as a
// commit its caller was refused.
func TestJournalTornWriteWithFailedRollbackPoisonsAndReplays(t *testing.T) {
	record := int64(len(frameJournalRecord(append([]byte{journalEntrySession}, encodeSession(journalSession(4, 8))...))))
	for _, tear := range []int{7, int(record)} {
		j, in := openFaultJournal(t, JournalOptions{Fsync: FsyncOff})
		path := j.path
		// The first write tears; the rollback truncate fails too, leaving
		// the torn bytes on disk — the post-power-loss shape.
		in.SetPlan(faultinject.Plan{
			TornWrites:    map[int]int{1: tear},
			FailTruncates: []int{1},
		})

		err := j.AppendSession(journalSession(4, 8))
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("tear of %d: append error = %v, want the injected fault", tear, err)
		}
		// Poisoned: even a fault-free append must now be refused.
		in.SetPlan(faultinject.Plan{})
		if err := j.AppendSession(journalSession(5, 8)); err == nil {
			t.Fatalf("tear of %d: append accepted on a journal whose rollback failed", tear)
		}
		j.Close()

		j2, replay := reopenClean(t, path)
		if replay.Records != 0 || replay.Sessions != 0 {
			t.Fatalf("tear of %d: replay applied the refused record: %+v", tear, replay)
		}
		if replay.TornTailBytes != record {
			t.Fatalf("tear of %d: TornTailBytes = %d, want the %d zeroed bytes of the record", tear, replay.TornTailBytes, record)
		}
		// The recovered journal must be appendable again.
		if err := j2.AppendSession(journalSession(6, 8)); err != nil {
			t.Fatalf("tear of %d: append after torn-tail recovery: %v", tear, err)
		}
		j2.Close()
	}
}

// A torn write whose rollback succeeds is invisible after retry: the torn
// bytes are truncated out and the rewritten record is whole.
func TestJournalTornWriteRecoveredByRetry(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{
		Fsync:        FsyncOff,
		RetryAppends: 1,
		RetryBackoff: time.Millisecond,
	})
	path := j.path
	in.SetPlan(faultinject.Plan{TornWrites: map[int]int{1: 5}})

	if err := j.AppendSession(journalSession(7, 8)); err != nil {
		t.Fatalf("torn write not recovered by retry: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, replay := reopenClean(t, path)
	defer j2.Close()
	if replay.Records != 1 || replay.Sessions != 1 || replay.TornTailBytes != 0 {
		t.Fatalf("replay = %+v, want one whole record and no torn bytes", replay)
	}
}

// Concurrent appends racing injected transient faults (run with -race):
// every acked record must survive a clean reopen exactly once, in spite of
// retries interleaving with other writers, and journal order must stay
// consistent with ack order per goroutine.
func TestJournalConcurrentAppendsUnderTransientFaults(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{
		Fsync:        FsyncAlways,
		RetryAppends: 4,
		RetryBackoff: time.Millisecond,
	})
	path := j.path
	// Every fifth write fails: enough churn that many appends retry at
	// least once, while the budget of 4 guarantees each eventually lands
	// (consecutive failures for one append would need two multiples of 5
	// in a row, which cannot happen).
	in.SetPlan(faultinject.Plan{WriteFailEvery: 5, WriteLatency: 100 * time.Microsecond})

	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	acked := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := j.AppendSession(journalSession(w*perWriter+i, 8)); err == nil {
					acked[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range acked {
		total += n
	}
	if total == 0 {
		t.Fatal("no append survived the fault plan; the test exercises nothing")
	}
	st := j.Stats()
	if st.AppendRetries == 0 {
		t.Error("no retries recorded; the fault plan never fired")
	}
	if int(st.Records) != total {
		t.Errorf("journal holds %d records, %d were acked", st.Records, total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay := reopenClean(t, path)
	defer j2.Close()
	if int(replay.Records) != total || int(replay.Sessions) != total {
		t.Fatalf("replay = %+v, want exactly the %d acked records", replay, total)
	}
}

// Compaction swaps the backing file; the injector must stay interposed on
// the new handle so later faults still fire.
func TestJournalWrapSurvivesCompaction(t *testing.T) {
	j, in := openFaultJournal(t, JournalOptions{Fsync: FsyncOff})
	for i := 0; i < 4; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.CompactTo(j.LastSeq()); err != nil {
		t.Fatal(err)
	}
	in.SetPlan(faultinject.Plan{FailWrites: []int{1}})
	if err := j.AppendSession(journalSession(9, 8)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fault after compaction = %v, want the injected fault (wrapper lost in the file swap?)", err)
	}
	in.SetPlan(faultinject.Plan{})
	if err := j.AppendSession(journalSession(9, 8)); err != nil {
		t.Fatal(err)
	}
	j.Close()
}
