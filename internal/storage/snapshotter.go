// Snapshot compaction: the background companion of the write-ahead journal.
// The snapshotter periodically captures a consistent engine state, persists
// it through the atomic SaveSnapshotSetAt, and truncates the journal prefix the
// snapshot now covers — so replay time after a crash stays proportional to
// the journal tail written since the last snapshot, not to the server's
// whole uptime.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
)

// SnapshotSource captures a consistent view of the engine state: the store
// the engine serves from, which later ingestions grow copy-on-write and never
// rewrite, and a copy of the log. The mark callback
// must be invoked while the state is pinned (i.e. under the same lock that
// serializes journal appends): the snapshotter uses it to read the journal
// offset the captured state corresponds to, so compaction removes exactly
// the records the snapshot covers and nothing appended concurrently.
// retrieval.Engine.SnapshotWith has this shape.
type SnapshotSource func(mark func()) (*kernel.ShardedSet, *feedbacklog.Log)

// SnapshotterConfig tunes the snapshotter. The zero value of the trigger
// fields selects the defaults; a non-positive Interval together with a
// non-positive MaxJournalBytes is rejected (the snapshotter would never
// fire).
type SnapshotterConfig struct {
	// SnapshotPath is where snapshots are written (atomically, see
	// SaveSnapshotSetAt).
	SnapshotPath string
	// Interval is the time trigger: a snapshot is taken when this much time
	// has passed since the last one and the journal is non-empty. <=0
	// disables the time trigger.
	Interval time.Duration
	// MaxJournalBytes is the size trigger: a snapshot is taken as soon as
	// the journal holds this many record bytes. 0 selects
	// DefaultMaxJournalBytes; negative disables the size trigger (Interval
	// must then be positive).
	MaxJournalBytes int64

	// now overrides the clock for tests; nil selects time.Now.
	now func() time.Time
}

// DefaultMaxJournalBytes is the journal size that forces a snapshot unless
// overridden (64 MiB).
const DefaultMaxJournalBytes = 64 << 20

// SnapshotterStats describes the snapshotter's activity for monitoring.
type SnapshotterStats struct {
	// Snapshots counts successful snapshot+compaction passes.
	Snapshots int64
	// LastSnapshotUnix is when the last successful pass finished (Unix
	// seconds; 0 before the first).
	LastSnapshotUnix int64
	// LastError is the message of the most recent failed pass, cleared by
	// the next success.
	LastError string
}

// Snapshotter runs background snapshot compaction over a journal. Create it
// with NewSnapshotter (which starts the background loop) and stop it with
// Close; SnapshotNow forces a pass, e.g. on graceful shutdown.
type Snapshotter struct {
	journal *Journal
	source  SnapshotSource
	cfg     SnapshotterConfig
	now     func() time.Time

	// passMu serializes whole snapshot passes: an older pass's snapshot
	// must never be installed over a newer one whose journal prefix was
	// already compacted, or the records in between would be unrecoverable.
	passMu sync.Mutex

	mu    sync.Mutex
	last  time.Time // last successful pass
	stats SnapshotterStats

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	// stopping is set before Close waits: a background pass that has not
	// yet started observes it under passMu and declines, so Close never
	// waits on work that began after shutdown was requested. Explicit
	// SnapshotNow ignores it — the graceful-shutdown sequence calls Close
	// first and then takes its final snapshot.
	stopping atomic.Bool
}

// NewSnapshotter creates a snapshotter over the journal and starts its
// background loop. The source must capture engine state consistently with
// the journal (see SnapshotSource).
func NewSnapshotter(journal *Journal, source SnapshotSource, cfg SnapshotterConfig) (*Snapshotter, error) {
	if journal == nil || source == nil {
		return nil, fmt.Errorf("storage: snapshotter needs a journal and a source")
	}
	if cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("storage: snapshotter needs a snapshot path")
	}
	if cfg.Interval <= 0 && cfg.MaxJournalBytes < 0 {
		return nil, fmt.Errorf("storage: snapshotter with both triggers disabled")
	}
	if cfg.MaxJournalBytes == 0 {
		cfg.MaxJournalBytes = DefaultMaxJournalBytes
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Snapshotter{
		journal: journal,
		source:  source,
		cfg:     cfg,
		now:     cfg.now,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.last = s.now() // the journal was just replayed; start a fresh window
	go s.loop()
	return s, nil
}

// loop polls the triggers until Close. Polling (rather than one long timer)
// keeps the size trigger responsive without journal-side callbacks.
func (s *Snapshotter) loop() {
	defer close(s.done)
	poll := s.cfg.Interval / 4
	if poll <= 0 || poll > 5*time.Second {
		poll = 5 * time.Second
	}
	if poll < 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.due() {
				// Failures are recorded in the stats and retried next poll;
				// the journal keeps accumulating meanwhile, so no data is
				// at risk — only replay time grows.
				s.backgroundPass()
			}
		}
	}
}

// due reports whether a trigger has fired. An empty journal never triggers:
// there is nothing to compact and the previous snapshot is still exact.
func (s *Snapshotter) due() bool {
	journalBytes := s.journal.TailBytes()
	if journalBytes <= 0 {
		return false
	}
	if s.cfg.MaxJournalBytes > 0 && journalBytes >= s.cfg.MaxJournalBytes {
		return true
	}
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	return s.cfg.Interval > 0 && s.now().Sub(last) >= s.cfg.Interval
}

// SnapshotNow captures the engine state together with the journal sequence
// it covers (atomically, under the engine's mutation lock), persists the
// snapshot with that sequence recorded, then compacts the journal through
// it. Safe to call concurrently with appends and with other SnapshotNow
// calls: whole passes are serialized, so a pass that captured an older
// state can never install its snapshot after a newer pass already compacted
// the journal past it. A crash anywhere in the pass is harmless — replay
// skips whatever records the surviving snapshot generation covers, so
// nothing is double-applied or lost.
func (s *Snapshotter) SnapshotNow() error {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	return s.snapshotLocked()
}

// backgroundPass is the loop's entry into snapshotLocked. It re-checks the
// stopping flag under passMu: a tick that raced Close may have reached
// here already, and starting a pass now would make Close wait out a full
// snapshot write for no benefit.
func (s *Snapshotter) backgroundPass() {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	if s.stopping.Load() {
		return
	}
	_ = s.snapshotLocked()
}

func (s *Snapshotter) snapshotLocked() error {
	var mark uint64
	set, fblog := s.source(func() { mark = s.journal.LastSeq() })
	err := SaveSnapshotSetAt(s.cfg.SnapshotPath, set, fblog, mark)
	if err == nil {
		err = s.journal.CompactTo(mark)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.LastError = err.Error()
		return err
	}
	s.last = s.now()
	s.stats.Snapshots++
	s.stats.LastSnapshotUnix = s.last.Unix()
	s.stats.LastError = ""
	return nil
}

// Stats returns a copy of the snapshotter's counters.
func (s *Snapshotter) Stats() SnapshotterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops the background loop: no new background pass starts once
// Close has begun, and Close waits only for a pass already in flight (a
// bounded wait — one snapshot write, not a queue of them). It does not
// take a final snapshot — the caller decides whether to (cbirserver calls
// Close and then SnapshotNow on graceful shutdown; after a crash the
// journal replays instead).
func (s *Snapshotter) Close() {
	s.closeOnce.Do(func() {
		s.stopping.Store(true)
		close(s.stop)
	})
	<-s.done
}
