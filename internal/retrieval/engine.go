// Package retrieval implements the interactive CBIR engine: the component a
// user-facing system (the HTTP server, the examples) talks to. It owns the
// indexed collection (visual descriptors and the accumulated user-feedback
// log), answers initial queries by visual similarity, runs
// relevance-feedback rounds with any of the library's schemes, appends
// committed feedback rounds back into the log — closing the long-term
// learning loop the paper is about — and ingests new images into the live
// collection without interrupting in-flight queries.
package retrieval

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// Result is one ranked image, as the HTTP API encodes it
// (server.ResultJSON).
type Result struct {
	Image int     `json:"image"`
	Score float64 `json:"score"`
}

// SchemeKind names the relevance-feedback schemes the engine can run.
type SchemeKind string

// Supported schemes.
const (
	SchemeEuclidean SchemeKind = "euclidean"
	SchemeRFSVM     SchemeKind = "rf-svm"
	SchemeLRF2SVMs  SchemeKind = "lrf-2svms"
	SchemeLRFCSVM   SchemeKind = "lrf-csvm"
)

// Options configures the engine's learning components.
type Options struct {
	// RefineTimeout is read by nothing: it bounded asynchronous refinement
	// rounds, which are gone, and a refinement runs under its caller's
	// context (the server's -train-timeout). The field stays only because
	// the benchmark sets it (bench/trace.go:158); it goes once bench/ stops
	// setting it.
	RefineTimeout time.Duration
	// Journal is an optional durability sink (typically *storage.Journal):
	// every committed feedback session and every ingested image batch is
	// appended to it before the in-memory state mutates, under the same
	// lock, so journal order matches log order exactly and a crash loses
	// at most the mutation whose commit had not yet returned. A failed
	// journal append fails the mutation.
	Journal JournalSink
}

// JournalSink receives engine mutations for durable logging.
// *storage.Journal implements it; tests substitute fakes.
type JournalSink interface {
	AppendSession(s feedbacklog.Session) error
	AppendImages(descriptors []linalg.Vector) error
}

// ErrJournal marks (errors.Is) a commit or an ingestion that failed because
// its journal append did. The request was valid and nothing changed — the
// append precedes the mutation, so the collection, the log and the session
// are as before and the same request succeeds once the journal can write
// again — which is a server fault (500), not the client's (400).
var ErrJournal = errors.New("retrieval: journal append failed")

// DefaultTrainWorkers is read by nothing: it was the default of the option
// that trained a refine's two modality SVMs concurrently, which lost to
// training them in turn and is gone (EXPERIMENTS.md "PR 28"). The constant
// stays only because the benchmark names it (bench/trace.go:254); it goes
// once bench/ stops naming it.
const DefaultTrainWorkers = 2

// epoch is one immutable state of the engine, the only one it publishes: its
// sequence number (1 for the initial collection, the next for every
// ingestion; a commit keeps it), the batch whose sharded store is the
// engine's only copy of the descriptors, the feedback log (an O(1) clone of
// the engine's) and the log's index. Every mutation publishes a new epoch in
// one store; readers rank the epoch they loaded, a state the serialized
// mutations produced, which no later mutation blocks or corrupts.
type epoch struct {
	seq   int64
	batch *core.CollectionBatch
	log   *feedbacklog.Log
	// index returns log's kernel.LogIndex. The initial epoch's builds it once
	// (sync.OnceValue), on the first refine or the first commit; every commit
	// publishes the index it extended.
	index func() *kernel.LogIndex
}

// checkImage refuses an image index (a query, a judged image) outside the
// epoch's collection: the one range check of the engine, on the one size.
func (ep *epoch) checkImage(what string, image int) error {
	if n := ep.batch.Len(); image < 0 || image >= n {
		return fmt.Errorf("retrieval: %s image %d out of range [0,%d)", what, image, n)
	}
	return nil
}

// Engine is the retrieval engine. It is safe for concurrent use: one epoch
// holds the collection, the feedback log and the log's index, and every read
// (a query, a refine, the counts, Log) loads one and takes no lock. Mutations
// (ingestion, log commits) are serialized behind a mutation lock, held
// across each one's journal append and its fsync, and each publishes a new
// epoch in one store, so a read never waits out a mutation.
type Engine struct {
	opts Options

	// cur is the current epoch; readers Load it once per operation and work
	// against that consistent snapshot.
	cur atomic.Pointer[epoch]

	// mu orders mutations and their journal appends; log is the log they
	// grow, which readers never touch (they read an epoch's clone).
	mu  sync.Mutex
	log *feedbacklog.Log

	// closed is set by Close: mutations read it at admission and closeCtx
	// at every cancellation check of a query or a refinement.
	closed atomic.Bool
}

// NewEngine builds an engine over a collection of visual descriptors and an
// existing feedback log (which may be empty but must cover the same
// collection). It refuses what AddImages refuses: descriptors of differing
// dimension or of dimension 0, and rows whose squared norm is not finite.
// The descriptors are copied into a sharded store (kernel.NewShardedSet);
// the input is not kept.
func NewEngine(visual []linalg.Vector, log *feedbacklog.Log, opts Options) (*Engine, error) {
	// NewShardedSet takes one dimension; NewEngineOver checks the norms.
	for i, d := range visual {
		if len(d) != len(visual[0]) {
			return nil, wrongDimension("image", i, len(d), len(visual[0]))
		}
	}
	return NewEngineOver(kernel.NewShardedSet(visual, 0), log, opts)
}

// NewEngineOver builds an engine that takes the sharded store over as its
// collection, without a copy (core.NewCollectionBatchOver): the form for a
// collection decoded straight into a store (storage.LoadFeatureSet,
// storage.LoadSnapshotSetAt). It refuses what NewEngine refuses — an empty
// collection, dimension 0, an image whose squared norm, read from the store,
// is not finite — and the caller must not grow the set afterwards.
func NewEngineOver(set *kernel.ShardedSet, log *feedbacklog.Log, opts Options) (*Engine, error) {
	n := set.Len()
	if n == 0 {
		return nil, fmt.Errorf("retrieval: empty collection")
	}
	if set.Dim() == 0 {
		// Nothing to rank by, and the journal cannot frame such rows.
		return nil, fmt.Errorf("retrieval: a collection of dimension 0")
	}
	for i := range n {
		if norm := set.SquaredNorm(i); math.IsNaN(norm) || math.IsInf(norm, 0) {
			return nil, notFinite("image", i, norm)
		}
	}
	if log == nil {
		log = feedbacklog.NewLog(n)
	}
	if log.NumImages() != n {
		return nil, fmt.Errorf("retrieval: log covers %d images, collection has %d", log.NumImages(), n)
	}
	// The first index is built on first use: not here, where it would cost
	// every start, nor by the writer log, which a commit may be growing.
	first := log.Clone()
	index := sync.OnceValue(func() *kernel.LogIndex { return first.ExtendIndex(nil) })
	e := &Engine{opts: opts, log: log}
	e.cur.Store(&epoch{seq: 1, batch: core.NewCollectionBatchOver(set), log: first, index: index})
	return e, nil
}

// checkDescriptors refuses rows (images of a collection, descriptors of an
// ingestion) the collection cannot hold: another dimension, or a squared norm
// that is not finite (a NaN or Inf component, or components that overflow
// when squared) — such a row is at distance NaN from itself and +Inf from
// everything else, so it would poison every ranking that reaches it, and the
// journal would replay it forever.
func checkDescriptors(what string, rows []linalg.Vector, dim int) error {
	for i, d := range rows {
		if len(d) != dim {
			return wrongDimension(what, i, len(d), dim)
		}
		if norm := d.Dot(d); math.IsNaN(norm) || math.IsInf(norm, 0) {
			return notFinite(what, i, norm)
		}
	}
	return nil
}

// wrongDimension is checkDescriptors' refusal of a row of another
// dimension; NewEngine makes it before the rows are stored.
func wrongDimension(what string, i, got, dim int) error {
	return fmt.Errorf("retrieval: %s %d has dimension %d, collection has %d", what, i, got, dim)
}

// notFinite is checkDescriptors' refusal of a row whose squared norm is not
// finite; NewEngineOver reads the norm from the store.
func notFinite(what string, i int, norm float64) error {
	return fmt.Errorf("retrieval: %s %d is not finite (squared norm %v)", what, i, norm)
}

// Close shuts the engine down. The engine starts no goroutine, so there is
// nothing to wait for: Close sets a flag. In-flight queries and refinements
// observe it at their next cancellation check — the scan's between shard
// ranges, the solver's between iterations — and return ErrEngineClosed (not
// context.Canceled: the caller did not hang up, the server did — the HTTP
// layer maps the two to different status codes), and new mutations are
// rejected at admission. Close is idempotent.
func (e *Engine) Close() { e.closed.Store(true) }

// NumImages returns the current collection size.
func (e *Engine) NumImages() int { return e.cur.Load().batch.Len() }

// CollectionStats describes one collection epoch; Epoch is its sequence
// number (1 for the initial collection, the next for every ingestion).
type CollectionStats struct {
	Images, Dim, Shards int
	Epoch               int64
}

// Collection describes the current epoch from a single load, so the four
// numbers belong together even while an ingestion publishes the next one.
func (e *Engine) Collection() CollectionStats {
	ep := e.cur.Load()
	set := ep.batch.VisualSet()
	return CollectionStats{Images: ep.batch.Len(), Dim: set.Dim(), Shards: set.NumShards(), Epoch: ep.seq}
}

// NumLogSessions returns the number of feedback sessions accumulated so far.
func (e *Engine) NumLogSessions() int { return e.cur.Load().log.NumSessions() }

// Log returns the current epoch's feedback log: a clone that no commit or
// ingestion changes, so it stays a stable view while the engine keeps
// serving. Readers share it; the caller must not grow it (Clone it first).
func (e *Engine) Log() *feedbacklog.Log { return e.cur.Load().log }

// AddImages ingests new visual descriptors into the live collection,
// appending them after the existing images, and returns the index of the
// first added image. The descriptors are copied. Ingestion extends the
// collection's flat store and feedback-log coverage copy-on-write (norms and
// kernel precomputation are built incrementally for the new rows only) and
// publishes the grown collection as a new epoch: queries already ranking the
// previous epoch finish undisturbed, and every query started afterwards sees
// the new images.
//
// Cancellation is honored at admission only: a context already cancelled
// when the mutation lock is acquired fails the ingestion before anything is
// journaled, but once the journal append starts the mutation runs to
// completion — a durable record must never describe a mutation that was
// abandoned halfway.
func (e *Engine) AddImages(ctx context.Context, descriptors []linalg.Vector) (int, error) {
	if len(descriptors) == 0 {
		return 0, fmt.Errorf("retrieval: no descriptors to add")
	}
	if err := checkDescriptors("descriptor", descriptors, e.Collection().Dim); err != nil {
		return 0, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, ErrEngineClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	// Journal before mutating: if the append fails the collection is
	// unchanged and the caller sees the error; if it succeeds the mutation
	// below cannot fail (the descriptors were validated above).
	if e.opts.Journal != nil {
		if err := e.opts.Journal.AppendImages(descriptors); err != nil {
			return 0, fmt.Errorf("%w: ingestion: %w", ErrJournal, err)
		}
	}
	// Mutations are serialized by e.mu, so only the latest epoch's batch is
	// ever appended to, as the copy-on-write store requires. The index stays:
	// an image no session judged is past its columns, which is uncovered.
	old := e.cur.Load()
	e.log.GrowImages(len(descriptors))
	e.cur.Store(&epoch{seq: old.seq + 1, batch: old.batch.Append(descriptors), log: e.log.Clone(), index: old.index})
	return old.batch.Len(), nil
}

// SnapshotWith returns the collection's store and the feedback log of one
// epoch, mutually consistent and suitable for persisting while the engine
// keeps serving and ingesting (see package storage's snapshot format). Both
// are the ones the engine serves from: ingestion grows the store
// copy-on-write and never rewrites a stored row, no mutation changes the
// epoch's log, and the caller must write neither. A non-nil mark is invoked
// while the mutation lock is held, just before the epoch is loaded: the
// snapshotter reads the journal offset the state corresponds to in it —
// appends are journaled under the same lock, so no record can land between
// the mark and the load. It satisfies storage.SnapshotSource.
func (e *Engine) SnapshotWith(mark func()) (*kernel.ShardedSet, *feedbacklog.Log) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if mark != nil {
		mark()
	}
	ep := e.cur.Load()
	return ep.batch.VisualSet(), ep.log
}

// InitialQuery returns the top-k images by Euclidean visual similarity to
// the query image — the result list a user judges in the first feedback
// round. It streams the collection through the sharded batch path with
// bounded per-shard selection, so no collection-sized score slice is
// allocated.
func (e *Engine) InitialQuery(stdctx context.Context, query, k int) ([]Result, error) {
	ep := e.cur.Load()
	if err := ep.checkImage("query", query); err != nil {
		return nil, err
	}
	ctx := &core.QueryContext{Query: query, Batch: ep.batch, Ctx: e.withCloseAware(stdctx)}
	ranked, err := core.Euclidean{}.RankTopAppend(ctx, k, nil)
	if err != nil {
		return nil, err
	}
	return toResults(ranked), nil
}

// Session is one interactive relevance-feedback session for a single query.
// It accumulates the user's judgments, can refine the ranking with any
// scheme, and can finally be committed into the engine's long-term log.
type Session struct {
	engine *Engine
	query  int

	mu        sync.Mutex
	judgments map[int]feedbacklog.Judgment
	committed bool
}

// StartSession begins a feedback session for the given query image.
func (e *Engine) StartSession(query int) (*Session, error) {
	if err := e.cur.Load().checkImage("query", query); err != nil {
		return nil, err
	}
	return &Session{engine: e, query: query, judgments: make(map[int]feedbacklog.Judgment)}, nil
}

// Judge records the user's relevance judgment for an image.
func (s *Session) Judge(image int, relevant bool) error {
	if err := s.engine.cur.Load().checkImage("judged", image); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committed {
		return fmt.Errorf("retrieval: session already committed")
	}
	s.judgments[image] = feedbacklog.Irrelevant
	if relevant {
		s.judgments[image] = feedbacklog.Relevant
	}
	return nil
}

// NumJudgments returns how many images have been judged in this session.
func (s *Session) NumJudgments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.judgments)
}

// Refine re-ranks the collection with the chosen scheme using the session's
// judgments (and, for the log-based schemes, the engine's accumulated
// feedback log) and returns the top-k results. Each refinement ranks the
// epoch current at call time — its collection and its log, as one state — so
// results reflect images ingested and sessions committed since the session
// started, and it takes no lock. The context's cancellation is honored
// throughout: the sharded scan checks it between shard ranges and the SMO
// solver between iterations, so a cancelled or deadline-expired refinement
// returns the context's error instead of finishing the round.
func (s *Session) Refine(stdctx context.Context, kind SchemeKind, k int) ([]Result, error) {
	s.mu.Lock()
	labeled := make([]core.LabeledExample, 0, len(s.judgments))
	for img, j := range s.judgments {
		labeled = append(labeled, core.LabeledExample{Index: img, Label: float64(j)})
	}
	s.mu.Unlock()
	// Load the epoch only after collecting the judgments: each judgment was
	// validated against the epoch current when it was recorded, epochs only
	// grow, and the atomic publication order guarantees this later load sees
	// an epoch at least that new — so every judged index is in range for ep.
	// (Loading before the judgment read would race a concurrent Judge
	// validated against a newer, larger epoch.)
	ep := s.engine.cur.Load()
	// Deterministic order of the labeled set regardless of map iteration; the
	// indices are the map's keys, so distinct.
	slices.SortFunc(labeled, func(a, b core.LabeledExample) int { return cmp.Compare(a.Index, b.Index) })

	if len(labeled) == 0 && kind != SchemeEuclidean {
		return nil, fmt.Errorf("retrieval: scheme %q needs at least one judgment", kind)
	}

	ctx := &core.QueryContext{
		LogIndex: ep.index(),
		Query:    s.query,
		Labeled:  labeled,
		Batch:    ep.batch,
		Ctx:      s.engine.withCloseAware(stdctx),
	}
	scheme, err := s.engine.scheme(kind)
	if err != nil {
		return nil, err
	}
	ranked, err := core.RankTop(scheme, ctx, k)
	if err != nil {
		return nil, err
	}
	return toResults(ranked), nil
}

// Commit appends the session's judgments to the engine's long-term feedback
// log as one log session. A session can only be committed once and must
// contain at least one judgment. Like AddImages, cancellation is honored at
// admission only: once the journal append starts the commit runs to
// completion, so the durable record and the in-memory log cannot diverge.
func (s *Session) Commit(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committed {
		return fmt.Errorf("retrieval: session already committed")
	}
	if len(s.judgments) == 0 {
		return fmt.Errorf("retrieval: nothing to commit")
	}
	// The map is handed over: the log keeps a sorted row of it, not the map.
	e := s.engine
	session := feedbacklog.Session{QueryImage: s.query, Judgments: s.judgments}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Journal before mutating the log. The judgments were validated image
	// by image in Judge and the query in StartSession, and the collection
	// only grows, so once the journal append succeeds AddSession cannot
	// fail — the durable record and the in-memory log cannot diverge.
	if e.opts.Journal != nil {
		if err := e.opts.Journal.AppendSession(session); err != nil {
			return fmt.Errorf("%w: commit: %w", ErrJournal, err)
		}
	}
	if _, err := e.log.AddSession(session); err != nil {
		return err
	}
	// The index is extended before the epoch that holds it is published,
	// and only here, where commits are serialized.
	old := e.cur.Load()
	index := e.log.ExtendIndex(old.index())
	e.cur.Store(&epoch{seq: old.seq, batch: old.batch, log: e.log.Clone(), index: func() *kernel.LogIndex { return index }})
	s.committed = true
	return nil
}

// scheme instantiates the requested ranking scheme at the library defaults.
func (e *Engine) scheme(kind SchemeKind) (core.Scheme, error) {
	switch kind {
	case SchemeEuclidean:
		return core.Euclidean{}, nil
	case SchemeRFSVM:
		return core.RFSVM{}, nil
	case SchemeLRF2SVMs:
		return core.LRF2SVMs{}, nil
	case SchemeLRFCSVM:
		return core.LRFCSVM{}, nil
	default:
		return nil, fmt.Errorf("retrieval: unknown scheme %q", kind)
	}
}

// ParseScheme maps a user-supplied string to a SchemeKind.
func ParseScheme(s string) (SchemeKind, error) {
	switch SchemeKind(s) {
	case SchemeEuclidean, SchemeRFSVM, SchemeLRF2SVMs, SchemeLRFCSVM:
		return SchemeKind(s), nil
	default:
		return "", fmt.Errorf("retrieval: unknown scheme %q (want one of euclidean, rf-svm, lrf-2svms, lrf-csvm)", s)
	}
}

func toResults(ranked []core.Ranked) []Result {
	out := make([]Result, len(ranked))
	for i, r := range ranked {
		out[i] = Result{Image: r.Index, Score: r.Score}
	}
	return out
}
