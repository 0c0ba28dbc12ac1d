// Package lrfcsvm is a from-scratch Go reproduction of
//
//	S. C. H. Hoi, M. R. Lyu, R. Jin.
//	"Integrating User Feedback Log into Relevance Feedback by Coupled SVM
//	 for Content-Based Image Retrieval", ICDE 2005.
//
// The repository implements the paper's contribution — the coupled support
// vector machine and the LRF-CSVM log-based relevance-feedback algorithm —
// together with every substrate it depends on: a synthetic COREL-like image
// collection, the 36-dimensional visual descriptors (HSV color moments,
// Canny edge-direction histogram, Daubechies-4 wavelet entropies), an SMO
// SVM solver with per-sample costs, the user-feedback log substrate and its
// simulator, the comparison schemes of the paper's evaluation (Euclidean,
// RF-SVM, LRF-2SVMs), the evaluation harness that regenerates Tables 1-2 and
// Figures 3-4, an interactive retrieval engine, binary persistence, and a
// JSON HTTP server.
//
// # Sharded query pipeline
//
// Collection scoring runs over fixed-size shards (kernel.ShardedSet): each
// shard is a self-contained slab of flat row-major storage with precomputed
// row norms. Every pass is one computation run by one driver
// (core's scanRanges): a candidate source (every shard — the only source
// the engine and the server use), the scheme's range scorer, and a sink —
// the top K, the unlabeled points of step 1 of Fig. 1, or every score.
// Workers claim in-shard ranges from one queue, and the context is
// checked between them. The top-K sink streams through bounded heaps
// (core.RankTop / core.TopK, O(n log K)) merged under the strict
// descending-score, ascending-index order, so results are bit-identical to
// a full stable sort for every shard size and worker count. Per-query score
// lanes and selectors come from a pooled scratch arena on the collection
// batch: a steady-state query with a recycled result buffer
// (RankTopAppend) allocates one object per ranking pass. An SVM scheme's
// training — the solvers, their Gram matrices, the models, LRF-CSVM's draft,
// coupled state and step lane (step 1's hand-off to step 3, one float64 per
// image) — comes from a training arena kept in the batch's one free list and
// handed back at one point once the answer is built, so a refine allocates
// its answer and a few fixed headers, 1.2-1.5 KB in 6-10 objects through
// retrieval.Session.Refine whatever the collection and the log
// (retrieval.TestRefineAllocations). LRF-CSVM's unlabeled selection keeps
// bounded selectors of capacity N', so a refine keeps no score per image
// and sorts nothing. The K limit is
// threaded end to end — Engine.InitialQuery, Session.Refine, and the HTTP
// query/refine endpoints (with a configurable default and hard ceiling) all
// return bounded lists, and so does the evaluation harness: every cutoff of
// the paper's tables is a prefix of one top-100 ranking, so
// eval.Experiment.RunScheme asks RankTopAppend once per query. The
// full-scores sink (Scheme.Rank) remains for the ablation heuristics of
// step 1, which rank every unlabeled image, the engine's reference model and
// the test references.
//
// # Dynamic collections
//
// The engine serves a living collection: retrieval.Engine.AddImages (and
// POST /api/images on the HTTP server) ingests new visual descriptors while
// queries and feedback rounds keep running. The collection is stored once, in
// the flat store of the epoch's core.CollectionBatch, which a
// core.QueryContext names by Batch (Visual is the un-indexed form of callers
// without one). Ingestion is copy-on-write — only the tail shard grows (full
// shards are shared between epochs), row norms and the collection-level
// kernel estimate grow incrementally, and the grown index is published as a
// new immutable epoch, so in-flight rankings finish against their own
// consistent snapshot and are never blocked or torn. Shard layout depends
// only on the shard size, never on ingestion batching. The epoch holds the
// feedback log too — a clone of the log commits grow — and its index
// (kernel.LogIndex): a committed feedback round extends the index by its
// session and publishes a new epoch, the same way, so a query, a refine and
// the log's counts each read one epoch and never take the mutation lock,
// which only orders mutations and their journal appends. A grown engine can be
// persisted as one self-contained snapshot file (storage.SaveSnapshotSetAt /
// retrieval.Engine.SnapshotWith) and reloaded bit-identically; cmd/cbirserver
// does this automatically on graceful shutdown via its -snapshot flag.
//
// The HTTP server manages feedback-session lifecycles for sustained
// traffic: sessions idle longer than the TTL (default 30 minutes) are
// evicted by a background sweeper, the live-session table is capped
// (default 16384, least-recently-used evicted first), and Server.Close
// shuts the session layer down gracefully.
//
// # Durability
//
// The accumulated feedback log is the system's most valuable state — the
// paper's premise is that it grows over time and makes retrieval smarter —
// so it must survive crashes, not just graceful shutdowns. storage.Journal
// is a write-ahead log of engine mutations: every committed session and
// every ingested image batch is appended as one CRC32-checksummed record
// (retrieval.Options.Journal) before the in-memory state mutates, under
// the engine's mutation lock, so journal order matches log order exactly
// and a failed append fails the request (a record that could not be made
// durable is rolled back out of the file). Startup replays the journal into
// the store the snapshot was loaded into (storage.OpenJournalOver) and
// reconstructs the pre-crash in-memory engine bit-identically, each
// replayed image batch joining the store as a live ingestion does: records
// carry sequence numbers and the snapshot records the sequence it covers
// (storage.SaveSnapshotSetAt), so replay skips what the snapshot already
// contains — a crash between snapshot install and journal compaction cannot
// double-apply a record. A torn trailing record — which an interrupted
// append can only leave at the end of the file — is tolerated and
// truncated, while a record whose bytes are all present but wrong, or a
// journal compacted past its snapshot, surfaces as storage.ErrCorrupt
// rather than silently discarding acknowledged records.
// storage.Snapshotter periodically folds the journal into the snapshot
// (serialized passes: capture state + covered sequence under the engine
// lock, atomic SaveSnapshotSetAt, then drop the covered journal prefix),
// bounding replay time by the tail written since the last snapshot.
//
// The fsync policy (storage.FsyncPolicy) trades commit latency against the
// loss window of an OS crash or power failure: FsyncAlways syncs every
// record, FsyncInterval (default) flushes on a background timer,
// FsyncOff leaves flushing to the OS. An application crash — panic, OOM
// kill, kill -9 — loses nothing under any policy, because records are
// written straight to the file, never buffered in the process; this is
// pinned by a crash-recovery suite that SIGKILLs a journaling helper
// process mid-append. cmd/cbirserver wires the whole loop via -journal,
// -fsync, -snapshot-interval and -journal-max-bytes, and exposes the
// durability counters (journaled records, replay statistics, snapshot
// compactions) in GET /api/status.
//
// # Feedback training
//
// The per-round training cost is carried by an SMO solver tuned for
// repeated retraining: an svm.Solver is bound to one point set and keeps its
// Gram matrix (each pair evaluated once, step 1's reused by LRF-CSVM's step
// 2) and working arrays across every Solve, pair selection is fused
// into the gradient-update loop — four points per instruction in AVX2 where
// kernel.Backend reports "avx2" or "avx512", to the bit of the Go loop — and
// every Solve starts from the zero iterate, whose first pair needs no scan, so a model
// depends only on the labels and costs it was trained with. The coupled
// trainer (core.TrainCoupled) retrains each modality
// through one Solver, reads the unlabeled decision values from its Gram
// matrix, and trains the modalities of each alternation step one after the
// other — pinned by an exact trajectory test, the golden MAP regression and
// the solver property suite in internal/svm.
//
// A refinement round is synchronous, as the paper's feedback loop is:
// Session.Refine (HTTP: POST /api/sessions/refine) trains and ranks under
// its caller's context and returns the ranking. How many rounds train at
// once is the server's admission limiter's business (-max-inflight-train),
// and the engine starts no goroutine of its own.
//
// # Static analysis and enforced invariants
//
// The contracts the suites above can only spot-check are enforced
// mechanically by a repo-specific analyzer suite (internal/analysis,
// driven by cmd/cbirlint and run as a required CI job): determinism
// forbids wall-clock reads, unseeded randomness and order-dependent
// map iteration in the bit-identical packages (internal/kernel,
// internal/core, internal/svm, internal/feedbacklog); ctxflow forbids
// fabricated context.Background()/TODO() and dropped ctx parameters on
// the serving path (internal/retrieval, internal/server,
// internal/core); atomicpublish forbids sync/atomic's functions, so
// atomically published state is a typed atomic, which has no plain access;
// exppurity confines math.Exp and friends to
// internal/kernel, where the pinned ≤2-ulp exponential lives, the one the
// trainer and the scans share; and
// lockjournal requires journal appends to happen inside the engine
// mutation mutex, before the state mutation they cover. Violations are
// suppressed only by an audited //cbirlint:ignore <analyzer> <reason>
// directive, and stale or malformed directives are themselves
// violations. Run it locally with "make lint" or
// "go run ./cmd/cbirlint ./...".
//
// What the engine has to do, as opposed to how, is written once, in
// internal/retrieval/model_test.go: a collection is a slice of rows, the log
// a slice of committed sessions, a ranking the scheme's scores fully sorted.
// TestEngineMatchesModel drives the engine — journal, snapshotter, crashes,
// faults, cancellations and Close included — against that definition under
// random operation sequences, and prints the sequence when they disagree,
// with the fewest of its steps found to disagree the same way.
// TestServerMatchesEngine (internal/server) does the same one layer up: it
// sends random requests over HTTP and checks every answer against a twin
// engine driven directly and a model of the server's own state — the
// sessions table, TTL and LRU eviction, the result-length rule and the status
// of each outcome.
//
// Start with the README for an architecture overview and the system
// inventory ("Layout"), and EXPERIMENTS.md for the current results, each
// with the command that prints it, and a line per PR. At the paper's scale on
// the synthetic substrate LRF-2SVMs ranks above LRF-CSVM — MAP 0.73 against
// 0.71 on the 20-Category table and 0.57 against 0.50 on the 50-Category one —
// the reverse of the paper's ordering (EXPERIMENTS.md "Paper tables"). The public
// entry points live under internal/core (learning schemes), internal/eval
// (experiments), internal/retrieval (interactive engine) and
// internal/server (HTTP API); runnable programs live under cmd/ and
// examples/.
package lrfcsvm
