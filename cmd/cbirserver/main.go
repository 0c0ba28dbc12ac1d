// Command cbirserver serves the content-based image retrieval engine over a
// JSON HTTP API: initial queries, relevance-feedback sessions with any of
// the library's schemes (including the paper's LRF-CSVM), committing
// feedback rounds into the long-term log, and live image ingestion.
//
// The collection can come from a feature/log store pair or from an engine
// snapshot. With -snapshot the server loads the snapshot when it exists
// (falling back to -features/-log for the initial import) and persists the
// grown collection and log back to it on graceful shutdown (SIGINT/SIGTERM).
//
// With -journal the server is durable against crashes, not just graceful
// shutdowns: every committed feedback session and every ingested image
// batch is appended to a write-ahead journal (fsync policy selectable with
// -fsync) before it takes effect, startup replays snapshot + journal tail
// to reconstruct the exact pre-crash state, and a background snapshotter
// folds the journal into the snapshot every -snapshot-interval (or sooner
// when it reaches -journal-max-bytes), bounding replay time.
//
// The serving path is deadline-aware: -query-timeout and -train-timeout
// bound each request (an expired or disconnected request stops its
// collection scan and SVM training mid-way), and -max-inflight-query /
// -max-inflight-train / -max-inflight-ingest cap concurrent work per
// request class — excess requests queue up to -queue-wait and are then
// shed with 503 + Retry-After (a negative -queue-wait sheds immediately
// without queueing). The listener itself runs with fixed connection
// hygiene timeouts (10s read-header, 2m read, 2m idle). See the server
// package documentation for the full resilience semantics.
//
// The server exports its operational state twice: human-readable under
// GET /api/status, and as Prometheus text exposition under GET /metrics —
// per-endpoint request latency histograms and status-code counters plus
// the admission, engine and journal gauges, all reading the same
// counters as /api/status. /metrics stays scrapable during shutdown.
//
// Which dot kernels the scoring scans run on (AVX-512 or AVX2 assembly or
// pure Go, picked by the build and the CPU) appears as "kernel_backend" in
// GET /api/status.
//
// Example:
//
//	featextract -out features.bin
//	loggen -features features.bin -out log.bin
//	cbirserver -features features.bin -log log.bin \
//	    -snapshot engine.snap -journal engine.wal -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
	"lrfcsvm/internal/storage"
)

func main() {
	var (
		featuresPath = flag.String("features", "features.bin", "feature store written by featextract")
		logPath      = flag.String("log", "", "optional log store written by loggen")
		snapshotPath = flag.String("snapshot", "", "optional engine snapshot: loaded when present, written by the snapshotter and on graceful shutdown")
		journalPath  = flag.String("journal", "", "optional write-ahead feedback journal: commits and ingestions are durable against crashes, startup replays the tail")
		fsyncPolicy  = flag.String("fsync", "interval", "journal flush policy: always (no loss window), interval (bounded window, default) or off")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "how often the snapshotter folds the journal into the snapshot (needs -snapshot and -journal)")
		journalMax   = flag.Int64("journal-max-bytes", storage.DefaultMaxJournalBytes, "journal size that forces a snapshot before the interval elapses")
		addr         = flag.String("addr", ":8080", "listen address")
		sessionTTL   = flag.Duration("session-ttl", server.DefaultSessionTTL, "idle feedback sessions are evicted after this long")
		maxSessions  = flag.Int("max-sessions", server.DefaultMaxSessions, "cap on live feedback sessions (LRU eviction beyond it)")
		defaultK     = flag.Int("default-k", server.DefaultResultK, "result-list length when a request omits k")
		maxK         = flag.Int("max-k", server.DefaultMaxK, "hard cap on the result-list length of any request")
		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "deadline of each query request; an expired one stops scanning mid-collection and returns 504 (0 = no deadline)")
		trainTimeout = flag.Duration("train-timeout", 30*time.Second, "deadline of each refine request; an expired one stops training or scanning mid-way and returns 504 (0 = no deadline)")
		maxQuery     = flag.Int("max-inflight-query", 0, "concurrent query requests admitted; beyond it requests queue briefly and then shed with 503 (0 = unlimited)")
		maxTrain     = flag.Int("max-inflight-train", 0, "concurrent refine requests admitted (0 = unlimited)")
		maxIngest    = flag.Int("max-inflight-ingest", 0, "concurrent ingest/commit requests admitted (0 = unlimited)")
		queueWait    = flag.Duration("queue-wait", server.DefaultQueueWait, "how long an over-limit request waits for an admission slot before it is shed with 503; negative sheds immediately without queueing")
	)
	flag.Parse()

	// What the command line can get wrong is diagnosed before the collection
	// is read, not after, and whether or not -journal is given.
	snapshotting := *journalPath != "" && *snapshotPath != ""
	fsync, err := checkCommandLine(flag.Args(), *fsyncPolicy, snapshotting, *snapInterval, *journalMax)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbirserver:", err)
		fmt.Fprintln(os.Stderr, "usage: cbirserver [flags] (cbirserver -h lists them)")
		os.Exit(2)
	}

	engine, journal, replay, err := startEngine(*snapshotPath, *featuresPath, *logPath, *journalPath, fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbirserver:", err)
		os.Exit(1)
	}
	if replay.Records > 0 || replay.Skipped > 0 || replay.TornTailBytes > 0 {
		log.Printf("cbirserver: journal %s replayed %d records (%d sessions, %d images), %d already covered by the snapshot, %d torn bytes truncated",
			*journalPath, replay.Records, replay.Sessions, replay.Images, replay.Skipped, replay.TornTailBytes)
	}

	// Snapshot compaction keeps journal replay bounded; it needs both a
	// snapshot to write and a journal to truncate.
	var snapshotter *storage.Snapshotter
	if snapshotting {
		snapshotter, err = storage.NewSnapshotter(journal, engine.SnapshotWith, storage.SnapshotterConfig{
			SnapshotPath:    *snapshotPath,
			Interval:        *snapInterval,
			MaxJournalBytes: *journalMax,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cbirserver:", err)
			os.Exit(1)
		}
	} else if journal != nil {
		log.Printf("cbirserver: -journal without -snapshot: the journal is never compacted and replay time grows with it")
	}

	cfg := server.Config{
		SessionTTL:        *sessionTTL,
		MaxSessions:       *maxSessions,
		DefaultK:          *defaultK,
		MaxK:              *maxK,
		QueryTimeout:      *queryTimeout,
		TrainTimeout:      *trainTimeout,
		MaxInflightQuery:  *maxQuery,
		MaxInflightTrain:  *maxTrain,
		MaxInflightIngest: *maxIngest,
		QueueWait:         *queueWait,
	}
	if journal != nil {
		cfg.Durability = durabilityStatus(journal, snapshotter, replay)
	}
	srv := server.NewWithConfig(engine, cfg)
	// Protect the listener itself, not just the handlers: a client that
	// trickles its headers or body holds a connection, and an idle keep-alive
	// connection should not pin a file descriptor forever. The header and
	// idle timeouts are fixed, deliberately generous defaults; per-request
	// work is bounded by -query-timeout/-train-timeout instead of
	// WriteTimeout, which would also kill legitimate long responses.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := <-stop
		log.Printf("cbirserver: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Stop accepting requests and drain in-flight ones, then shut the
		// session layer down before the final snapshot.
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("cbirserver: shutdown: %v", err)
		}
		srv.Close()
		// A request that outlived the drain window stops at its next
		// cancellation check, and a late commit or ingestion is refused
		// instead of landing after the final snapshot.
		engine.Close()
		switch {
		case snapshotter != nil:
			// Final pass: snapshot the end state and compact the journal to
			// empty, so the next start replays nothing.
			snapshotter.Close()
			if err := snapshotter.SnapshotNow(); err != nil {
				log.Printf("cbirserver: final snapshot: %v", err)
			} else {
				log.Printf("cbirserver: snapshot of %d images (%d log sessions) written to %s",
					engine.NumImages(), engine.NumLogSessions(), *snapshotPath)
			}
		case *snapshotPath != "":
			snapSet, snapLog := engine.SnapshotWith(nil)
			if err := storage.SaveSnapshotSetAt(*snapshotPath, snapSet, snapLog, 0); err != nil {
				log.Printf("cbirserver: save snapshot: %v", err)
			} else {
				log.Printf("cbirserver: snapshot of %d images (%d log sessions) written to %s",
					snapSet.Len(), snapLog.NumSessions(), *snapshotPath)
			}
		}
		if journal != nil {
			if err := journal.Close(); err != nil {
				log.Printf("cbirserver: close journal: %v", err)
			}
		}
	}()

	// The heap goal the server starts serving under is twice the heap the
	// last collection found live. Left to chance, that collection falls
	// anywhere in the load — with the loaders' buffers, the log file's
	// decoding and the journal's replay still reachable or not — and the
	// served heap's peak moves from one start to the next. One
	// collection started here, once those are garbage, sets the goal from
	// what the server keeps; it runs beside the first requests rather than
	// in front of them.
	go runtime.GC()

	coll := engine.Collection()
	log.Printf("cbirserver: serving %d images in %d shards (%d log sessions) on %s", coll.Images, coll.Shards, engine.NumLogSessions(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("cbirserver: %v", err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// shutdown goroutine to finish draining and writing the snapshot.
	<-shutdownDone
}

// checkCommandLine refuses positional arguments — every input is a flag, so
// `cbirserver features.bin` would otherwise serve ./features.bin or fail on a
// file the user never named — refuses a snapshotter neither of whose triggers
// can fire (storage.NewSnapshotter's own condition, which main reaches only
// after the collection is loaded and the journal replayed), and parses -fsync.
func checkCommandLine(args []string, fsyncPolicy string, snapshotting bool, snapInterval time.Duration, journalMax int64) (storage.FsyncPolicy, error) {
	if len(args) > 0 {
		return 0, fmt.Errorf("unexpected argument %q: the collection is named with -features or -snapshot", args[0])
	}
	if snapshotting && snapInterval <= 0 && journalMax < 0 {
		return 0, fmt.Errorf("-snapshot-interval %v with -journal-max-bytes %d: the snapshotter would never run; give one of them a positive value or drop -snapshot", snapInterval, journalMax)
	}
	return storage.ParseFsyncPolicy(fsyncPolicy)
}

// durabilityStatus adapts the journal, snapshotter and replay counters into
// the /api/status durability section.
func durabilityStatus(journal *storage.Journal, snapshotter *storage.Snapshotter, replay storage.ReplayStats) func() server.DurabilityStatus {
	return func() server.DurabilityStatus {
		js := journal.Stats()
		d := server.DurabilityStatus{
			Journal:           true,
			FsyncPolicy:       journal.Fsync().String(),
			JournaledRecords:  js.Records,
			JournaledSessions: js.Sessions,
			JournaledImages:   js.Images,
			JournalBytes:      js.Bytes,
			SyncFailures:      js.SyncFailures,
			ReplayedSessions:  replay.Sessions,
			ReplayedImages:    replay.Images,
			ReplayTornBytes:   replay.TornTailBytes,
		}
		if snapshotter != nil {
			ss := snapshotter.Stats()
			d.Snapshots = ss.Snapshots
			d.LastSnapshotUnix = ss.LastSnapshotUnix
			d.LastSnapshotError = ss.LastError
		}
		return d
	}
}

// startEngine brings the engine up: the collection loaded (loadCollection),
// then the journal replayed over it when journalPath is set, then the engine
// over the store. Replay recovers everything committed or ingested since the
// loaded state was persisted; the snapshot records the journal sequence it
// covers, so replay never double-applies a record even if the previous
// process died between snapshot install and compaction. Replayed images join
// the store through its Grow, as ingested ones do, and the engine takes the
// store over: the collection is stored once.
func startEngine(snapshotPath, featuresPath, logPath, journalPath string, fsync storage.FsyncPolicy) (*retrieval.Engine, *storage.Journal, storage.ReplayStats, error) {
	var replay storage.ReplayStats
	set, fblog, coveredSeq, err := loadCollection(snapshotPath, featuresPath, logPath)
	if err != nil {
		return nil, nil, replay, err
	}
	if set.Len() == 0 {
		return nil, nil, replay, fmt.Errorf("cbirserver: %s holds no images", featuresPath)
	}
	var opts retrieval.Options
	var journal *storage.Journal
	if journalPath != "" {
		if fblog == nil {
			fblog = feedbacklog.NewLog(set.Len())
		}
		journal, set, replay, err = storage.OpenJournalOver(journalPath, set, fblog, storage.JournalOptions{Fsync: fsync, SnapshotSeq: coveredSeq})
		if err != nil {
			return nil, nil, replay, fmt.Errorf("journal: %w", err)
		}
		opts.Journal = journal
	}
	engine, err := retrieval.NewEngineOver(set, fblog, opts)
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, nil, replay, err
	}
	return engine, journal, replay, nil
}

// loadCollection resolves the startup collection, decoded straight into a
// sharded store: an existing snapshot wins, otherwise the feature store
// (plus optional log store) is imported. The third return is the journal
// sequence the loaded state covers (0 for a fresh import or a snapshot
// written without a journal).
func loadCollection(snapshotPath, featuresPath, logPath string) (*kernel.ShardedSet, *feedbacklog.Log, uint64, error) {
	if snapshotPath != "" {
		set, fblog, seq, err := storage.LoadSnapshotSetAt(snapshotPath)
		if err == nil {
			log.Printf("cbirserver: resuming from snapshot %s", snapshotPath)
			return set, fblog, seq, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, 0, err
		}
	}
	set, err := storage.LoadFeatureSet(featuresPath)
	if err != nil {
		return nil, nil, 0, err
	}
	var fblog *feedbacklog.Log
	if logPath != "" {
		if fblog, err = storage.LoadLog(logPath); err != nil {
			return nil, nil, 0, err
		}
	}
	return set, fblog, 0, nil
}
