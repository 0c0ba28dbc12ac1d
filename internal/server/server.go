// Package server exposes the retrieval engine over a small JSON HTTP API so
// the CBIR system can be driven interactively: issue a query, judge results,
// refine with any relevance-feedback scheme, commit the round into the
// long-term feedback log, and ingest new images into the live collection.
//
// Endpoints:
//
//	GET  /api/status                      -> collection and log statistics
//	GET  /api/query?image=ID&k=K          -> initial (Euclidean) results
//	POST /api/images                      -> ingest images into the collection
//	POST /api/sessions                    -> start a feedback session
//	POST /api/sessions/judge              -> record a batch of judgments
//	                                         (all of it, or none on a 400)
//	POST /api/sessions/refine             -> re-rank with a scheme
//	POST /api/sessions/commit             -> append the round to the log
//	GET  /metrics                         -> Prometheus text exposition
//
// A refinement is synchronous, as the paper's feedback loop is: the request
// trains and ranks under its caller's context and answers with the ranking.
//
// Every ranking endpoint returns a bounded result list under one rule: an
// omitted or zero k selects the configured default (Config.DefaultK, 20
// unless overridden), a negative k is a 400, and requests beyond the
// configured ceiling (Config.MaxK, 1000 unless overridden) are capped, so a
// single request can never pull a full ranking of an arbitrarily large
// collection. The batch size of /api/images is capped as well (4096 images).
//
// The server is built for sustained traffic: feedback sessions are evicted
// after an idle TTL (default 30 minutes) and capped at a maximum live count
// (default 16384, least-recently-used first), so abandoned sessions cannot
// accumulate without bound. Close shuts the server down gracefully.
//
// # Resilience
//
// Every request runs under its caller's context: a disconnected client
// cancels its sharded collection scan and its SMO training mid-flight, so
// abandoned requests free their workers instead of burning a full round.
// Per-endpoint deadlines come from Config.QueryTimeout (GET /api/query) and
// Config.TrainTimeout (POST /api/sessions/refine); a deadline that expires
// mid-request returns 504 Gateway Timeout, and a client that disconnects
// first gets the non-standard 499 (client closed request, never seen by the
// client — it exists for the access log). Zero timeouts (the default) disable
// the per-endpoint deadline; the request still honors the client's own
// cancellation.
//
// Admission control is per class: queries, training rounds and ingestion
// each have their own concurrency limiter (Config.MaxInflightQuery/Train/
// Ingest; 0 = unlimited) with a bounded wait queue. A request arriving when
// its class is saturated waits up to Config.QueueWait for a slot and is
// then shed with 503 Service Unavailable + a Retry-After header — requests
// already in flight complete normally. A negative QueueWait disables the
// wait queue: saturation sheds immediately. 503 is the one overload answer —
// "the whole class is overloaded, retry after backing off": clients should
// retry it with exponential backoff, honoring Retry-After, and treat 4xx
// request errors as permanent. A commit or an ingestion whose journal append
// fails is neither: it answers 500 with the cause, nothing has changed, and
// the same request succeeds once the journal can write again. Per-class
// in-flight gauges, queue depths and shed counters are exposed under
// "admission" in GET /api/status.
//
// All JSON POST bodies are size-capped (1 MiB, except /api/images whose cap
// scales with its batch limit); an oversized body returns 413 Request Entity
// Too Large. A body naming a field its route does not have is a 400 that
// names the field, not a request served without it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/metrics"
	"lrfcsvm/internal/retrieval"
)

// Config tunes the server's session lifecycle management. The zero value
// selects the defaults.
type Config struct {
	// SessionTTL is how long an idle (not judged, refined or committed)
	// session survives before eviction; <=0 selects 30 minutes.
	SessionTTL time.Duration
	// MaxSessions caps the number of live sessions; when a new session would
	// exceed it, the least recently used session is evicted. <=0 selects
	// 16384.
	MaxSessions int
	// DefaultK is the result-list length used when a query or refine
	// request does not specify k (or specifies k <= 0); <=0 selects 20.
	DefaultK int
	// MaxK caps the result-list length of any single request; larger
	// requests are silently capped, so no request pulls a full ranking of
	// an arbitrarily large collection. <=0 selects 1000.
	MaxK int
	// Durability optionally reports the persistence layer's counters
	// (journal, replay, snapshot compaction); when set, GET /api/status
	// includes them. cbirserver wires it when -journal is given.
	Durability func() DurabilityStatus

	// QueryTimeout bounds one GET /api/query request; an expired deadline
	// aborts the scan between shard ranges and returns 504. <=0 disables the
	// deadline (client cancellation is still honored).
	QueryTimeout time.Duration
	// TrainTimeout bounds one POST /api/sessions/refine request: training
	// and scanning abort at the deadline with 504. <=0 disables the
	// deadline.
	TrainTimeout time.Duration
	// MaxInflightQuery/Train/Ingest cap the concurrently running requests
	// of each class; an equal number more may queue for QueueWait before
	// being shed with 503 + Retry-After. <=0 means unlimited.
	MaxInflightQuery  int
	MaxInflightTrain  int
	MaxInflightIngest int
	// QueueWait is how long an over-limit request may wait for a slot
	// before it is shed. Zero selects the 1 second default; a negative
	// value explicitly disables queueing, so over-limit requests are shed
	// immediately (503 + Retry-After) instead of waiting. "Shed
	// immediately" must be asked for — a zero value accidentally inherited
	// from an empty Config must not silently turn every burst into a shed
	// storm.
	QueueWait time.Duration

	// now overrides the clock; package tests use it to drive TTL eviction
	// deterministically. Nil selects time.Now.
	now func() time.Time
}

// Defaults for Config's zero values.
const (
	DefaultSessionTTL  = 30 * time.Minute
	DefaultMaxSessions = 16384
	DefaultResultK     = 20
	DefaultMaxK        = 1000
	DefaultQueueWait   = time.Second
)

// maxIngestImages caps the image count of one POST /api/images request (the
// request body is additionally size-limited to what that many descriptors
// can plausibly encode).
const maxIngestImages = 4096

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.DefaultK <= 0 {
		c.DefaultK = DefaultResultK
	}
	if c.MaxK <= 0 {
		c.MaxK = DefaultMaxK
	}
	if c.DefaultK > c.MaxK {
		c.DefaultK = c.MaxK
	}
	if c.QueueWait == 0 {
		c.QueueWait = DefaultQueueWait
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// resultK applies the one rule every ranking endpoint has for a requested
// result-list length: 0 (or omitted) selects Config.DefaultK, anything above
// Config.MaxK is capped, and a negative k is refused with a 400 written here.
func (s *Server) resultK(w http.ResponseWriter, k int) (int, bool) {
	switch {
	case k < 0:
		writeError(w, http.StatusBadRequest, "invalid k %d: want a positive length, or 0 for the server default", k)
		return 0, false
	case k == 0:
		return s.cfg.DefaultK, true
	case k > s.cfg.MaxK:
		return s.cfg.MaxK, true
	}
	return k, true
}

// sessionEntry tracks one live session. The last-use timestamp is atomic so
// concurrent requests touching the same or different sessions never contend
// on the server's table lock longer than the map lookup itself; all
// per-session state transitions are guarded by the session's own lock inside
// retrieval.Session.
type sessionEntry struct {
	session  *retrieval.Session
	lastUsed atomic.Int64 // unix nanoseconds
}

// Server wraps a retrieval engine with an HTTP API. Create one with New and
// mount it via Handler; call Close when done to stop the session sweeper and
// drop live sessions.
type Server struct {
	engine *retrieval.Engine
	cfg    Config
	now    func() time.Time // from Config; time.Now unless a test injects one

	mu       sync.RWMutex // guards the table only, never held across engine calls
	nextID   int
	sessions map[int]*sessionEntry

	// Per-class admission limiters; see the package comment's resilience
	// section for the shedding semantics.
	limQuery  *classLimiter
	limTrain  *classLimiter
	limIngest *classLimiter

	// metrics is the server's registry, rendered by GET /metrics; endpoints
	// holds the per-route request instrumentation (see metrics.go).
	metrics   *metrics.Registry
	endpoints map[string]*endpointMetrics

	closed    atomic.Bool
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New creates a server around an engine with the default session lifecycle
// configuration.
func New(engine *retrieval.Engine) *Server {
	return NewWithConfig(engine, Config{})
}

// NewWithConfig creates a server around an engine. It starts a background
// sweeper that evicts sessions idle past the TTL; Close stops it.
func NewWithConfig(engine *retrieval.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		engine:    engine,
		cfg:       cfg,
		now:       cfg.now,
		nextID:    1,
		sessions:  make(map[int]*sessionEntry),
		limQuery:  newClassLimiter(cfg.MaxInflightQuery, cfg.QueueWait),
		limTrain:  newClassLimiter(cfg.MaxInflightTrain, cfg.QueueWait),
		limIngest: newClassLimiter(cfg.MaxInflightIngest, cfg.QueueWait),
		metrics:   metrics.NewRegistry(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.endpoints = make(map[string]*endpointMetrics)
	for _, name := range []string{
		"status", "query", "images", "sessions", "judge", "refine", "commit",
		"metrics",
	} {
		s.endpoints[name] = newEndpointMetrics(s.metrics, name)
	}
	s.registerStackMetrics()
	go s.sweeper()
	return s
}

// Close shuts the server down: the TTL sweeper is stopped, live sessions are
// dropped, and subsequent API requests are rejected with 503. Close is
// idempotent and safe to call concurrently with requests; uncommitted
// judgments are lost (the long-term log only ever receives committed
// rounds).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
		<-s.done
		s.mu.Lock()
		s.sessions = make(map[int]*sessionEntry)
		s.mu.Unlock()
	})
}

// sweeper periodically evicts idle sessions until Close.
func (s *Server) sweeper() {
	defer close(s.done)
	interval := s.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep evicts every session idle past the TTL and returns how many were
// evicted. The background sweeper calls Sweep periodically; it is exported so
// operators (and tests) can force a pass.
func (s *Server) Sweep() int {
	// A tick that raced Close may reach here after shutdown began; Close
	// clears the whole table anyway, so don't start a pass it would only
	// wait on.
	if s.closed.Load() {
		return 0
	}
	cutoff := s.now().Add(-s.cfg.SessionTTL).UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	for id, ent := range s.sessions {
		if ent.lastUsed.Load() < cutoff {
			delete(s.sessions, id)
			evicted++
		}
	}
	return evicted
}

// addSession registers a session, evicting least-recently-used entries when
// the table is full, and returns its ID.
func (s *Server) addSession(session *retrieval.Session) int {
	now := s.now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Guard MaxSessions explicitly: a Config that bypassed withDefaults
	// (zero or negative cap over an empty table) would otherwise spin this
	// loop forever deleting a key that is not there.
	for s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		victim, ok := s.evictionVictimLocked()
		if !ok {
			break
		}
		delete(s.sessions, victim)
	}
	id := s.nextID
	s.nextID++
	ent := &sessionEntry{session: session}
	ent.lastUsed.Store(now)
	s.sessions[id] = ent
	return id
}

// evictionVictimLocked picks the least-recently-used session. Returns false
// only for an empty table.
func (s *Server) evictionVictimLocked() (int, bool) {
	victim, oldest, found := 0, int64(0), false
	for id, ent := range s.sessions {
		if v := ent.lastUsed.Load(); !found || v < oldest {
			victim, oldest, found = id, v, true
		}
	}
	return victim, found
}

// session looks a session up and marks it used.
func (s *Server) session(id int) (*retrieval.Session, bool) {
	s.mu.RLock()
	ent, ok := s.sessions[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	ent.lastUsed.Store(s.now().UnixNano())
	return ent.session, true
}

// dropSession removes a session from the table (after commit).
func (s *Server) dropSession(id int) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// numSessions returns the live session count.
func (s *Server) numSessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// Handler returns the HTTP handler with all API routes mounted. The heavy
// endpoints pass through their class's admission limiter; the cheap
// bookkeeping endpoints (status, session start/judge) are never queued or
// shed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// instrument sits outermost so shed and shutdown-rejected requests are
	// recorded with the status the client actually saw.
	mux.HandleFunc("/api/status", s.instrument(s.endpoints["status"], s.guard(s.handleStatus)))
	mux.HandleFunc("/api/query", s.instrument(s.endpoints["query"], s.guard(s.admit(s.limQuery, s.handleQuery))))
	mux.HandleFunc("/api/images", s.instrument(s.endpoints["images"], s.guard(s.admit(s.limIngest, s.handleAddImages))))
	mux.HandleFunc("/api/sessions", s.instrument(s.endpoints["sessions"], s.guard(s.handleStartSession)))
	mux.HandleFunc("/api/sessions/judge", s.instrument(s.endpoints["judge"], s.guard(s.handleJudge)))
	mux.HandleFunc("/api/sessions/refine", s.instrument(s.endpoints["refine"], s.guard(s.admit(s.limTrain, s.handleRefine))))
	mux.HandleFunc("/api/sessions/commit", s.instrument(s.endpoints["commit"], s.guard(s.admit(s.limIngest, s.handleCommit))))
	// /metrics stays outside guard: the last scrape is how a shutdown is
	// observed from the outside.
	mux.HandleFunc("/metrics", s.instrument(s.endpoints["metrics"], s.handleMetrics))
	return mux
}

// guard rejects requests once the server is closed.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		h(w, r)
	}
}

// admit passes the request through its class limiter: shed requests get
// 503 with a Retry-After hint derived from the class's observed queue depth
// and drain rate (falling back to the wait budget before any request has
// completed), clients that give up while queued get 499.
func (s *Server) admit(lim *classLimiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := lim.acquire(r.Context())
		if err != nil {
			if errors.Is(err, errOverloaded) {
				w.Header().Set("Retry-After", strconv.FormatInt(lim.retryAfterSeconds(), 10))
				writeError(w, http.StatusServiceUnavailable, "overloaded: class concurrency limit reached, retry later")
				return
			}
			writeError(w, statusClientClosedRequest, "client closed request while queued")
			return
		}
		defer release()
		h(w, r)
	}
}

// statusClientClosedRequest is the non-standard nginx code for a client
// that disconnected before the response; no client sees it, but it keeps
// cancelled requests distinguishable in access logs and tests.
const statusClientClosedRequest = 499

// requestCtx derives the handler's working context: the client's own
// context (cancelled on disconnect), bounded by the per-class timeout when
// one is configured. With a zero timeout the request context is passed
// through unwrapped.
func (s *Server) requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// statusForError maps an engine error to an HTTP status: an expired
// per-endpoint deadline is 504, an engine shut down mid-request is 503 (the
// request was fine, this replica is going away — retry elsewhere), and
// anything else is a plain request error.
//
// context.Canceled is only 499 (client closed request) when the request's
// own context actually carries the cancellation: a cancellation that did
// not come from the client is server-initiated, and blaming the client for
// it would both lie in the access log and deny the client the 503 it should
// act on.
func statusForError(r *http.Request, err error) int {
	switch {
	case errors.Is(err, retrieval.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, retrieval.ErrJournal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			return statusClientClosedRequest
		}
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeEngineError writes the response for a failed engine call. Shutdown
// 503s get an explicit shutting-down body so a client (or an operator
// reading the access log) can tell them from admission-control 503s, which
// carry the overloaded body and a Retry-After hint instead.
func writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusForError(r, err)
	if status == http.StatusServiceUnavailable {
		writeError(w, status, "server is shutting down: %v", err)
		return
	}
	writeError(w, status, "%v", err)
}

// maxJSONBody caps the small JSON POST bodies (session start, judgments,
// refinement, commit) at 1 MiB — orders of magnitude above any legitimate
// payload, and small enough that a hostile client cannot buffer gigabytes
// into the decoder. /api/images sizes its own cap from maxIngestImages
// instead.
const maxJSONBody = 1 << 20

// decodeJSON bounds the request body and decodes it into v, writing the
// error response (413 for an oversized body, 400 otherwise) itself. A field
// v does not have is a 400 naming it: a request that asks for something the
// route does not do ("async": true) must not be answered as if it had not
// asked. The caller must stop handling the request when it returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes before it writes the header, so a payload that cannot be
// encoded (a non-finite score) is a 500 with an error body, never a 200 with
// an empty one.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		// A struct of one string always encodes.
		_ = json.NewEncoder(&body).Encode(errorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one left to tell.
	_, _ = w.Write(body.Bytes())
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// DurabilityStatus is the durability section of GET /api/status: what the
// write-ahead feedback journal has recorded, what startup replayed, and how
// snapshot compaction is keeping up. All counters are since process start.
type DurabilityStatus struct {
	// Journal reports whether a journal is attached at all.
	Journal     bool   `json:"journal"`
	FsyncPolicy string `json:"fsync_policy,omitempty"`
	// Journaled* count records appended since startup; JournalBytes is the
	// current journal file size (compaction shrinks it back).
	JournaledRecords  int64 `json:"journaled_records"`
	JournaledSessions int64 `json:"journaled_sessions"`
	JournaledImages   int64 `json:"journaled_images"`
	JournalBytes      int64 `json:"journal_bytes"`
	// SyncFailures counts journal fsyncs that returned an error, the
	// background-interval ones included, which fail no request and would
	// otherwise show nowhere.
	SyncFailures int64 `json:"sync_failures"`
	// Replayed* describe what startup recovered from the journal tail;
	// ReplayTornBytes is the size of the torn trailing write truncated
	// away (0 after a graceful shutdown).
	ReplayedSessions int   `json:"replayed_sessions"`
	ReplayedImages   int   `json:"replayed_images"`
	ReplayTornBytes  int64 `json:"replay_torn_bytes"`
	// Snapshots counts successful snapshot-compaction passes;
	// LastSnapshotUnix is when the last one finished (0 before the first).
	// LastSnapshotError is the message of the most recent failed pass,
	// cleared by the next success: while it is set the journal is not being
	// compacted.
	Snapshots         int64  `json:"snapshots"`
	LastSnapshotUnix  int64  `json:"last_snapshot_unix"`
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
}

// StatusResponse is the payload of GET /api/status.
type StatusResponse struct {
	Images int `json:"images"`
	Dim    int `json:"dim"`
	Shards int `json:"shards"`
	// Epoch is the collection epoch sequence number: 1 for the initial
	// collection, incremented by every published ingestion.
	Epoch          int64 `json:"epoch"`
	LogSessions    int   `json:"log_sessions"`
	ActiveSessions int   `json:"active_sessions"`
	// Admission reports the per-class concurrency limiters: in-flight and
	// queued requests, configured ceilings, and cumulative admitted/shed
	// counts.
	Admission AdmissionStatus `json:"admission"`
	// Durability is present when the server runs with a journal attached
	// (Config.Durability).
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// KernelBackend is the active compute backend of the scoring kernels
	// (see internal/kernel: "unrolled", "avx2" or "avx512").
	KernelBackend string `json:"kernel_backend"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	coll := s.engine.Collection()
	resp := StatusResponse{
		Images:         coll.Images,
		Dim:            coll.Dim,
		Shards:         coll.Shards,
		Epoch:          coll.Epoch,
		LogSessions:    s.engine.NumLogSessions(),
		ActiveSessions: s.numSessions(),
		Admission: AdmissionStatus{
			Query:  s.limQuery.status(),
			Train:  s.limTrain.status(),
			Ingest: s.limIngest.status(),
		},
	}
	if s.cfg.Durability != nil {
		d := s.cfg.Durability()
		resp.Durability = &d
	}
	resp.KernelBackend = kernel.Backend()
	writeJSON(w, http.StatusOK, resp)
}

// ResultJSON is one ranked image in API responses: the engine's result,
// encoded as it is.
type ResultJSON = retrieval.Result

// QueryResponse is the payload of GET /api/query.
type QueryResponse struct {
	Query   int          `json:"query"`
	K       int          `json:"k"`
	Results []ResultJSON `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	image, err := strconv.Atoi(r.URL.Query().Get("image"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid image parameter: %v", err)
		return
	}
	k := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil {
			writeError(w, http.StatusBadRequest, "invalid k parameter: %v", err)
			return
		}
	}
	k, ok := s.resultK(w, k)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, s.cfg.QueryTimeout)
	defer cancel()
	results, err := s.engine.InitialQuery(ctx, image, k)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{Query: image, K: k, Results: results})
}

// AddImagesRequest is the payload of POST /api/images: the visual
// descriptors of the images to ingest, one row per image, all matching the
// collection's dimensionality.
type AddImagesRequest struct {
	Images [][]float64 `json:"images"`
}

// AddImagesResponse reports where the ingested images landed.
type AddImagesResponse struct {
	// First is the collection index assigned to the first ingested image;
	// the rest follow contiguously.
	First int `json:"first"`
	Added int `json:"added"`
	// Images is the new collection size.
	Images int `json:"images"`
}

func (s *Server) handleAddImages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// Bound the buffered payload before decoding: a descriptor component
	// encodes in well under 32 bytes of JSON, so this admits any legitimate
	// batch up to maxIngestImages while refusing multi-gigabyte bodies.
	dim := s.engine.Collection().Dim
	var req AddImagesRequest
	if !decodeJSON(w, r, maxIngestImages*int64(dim+1)*32, &req) {
		return
	}
	if len(req.Images) == 0 {
		writeError(w, http.StatusBadRequest, "no images to add")
		return
	}
	if len(req.Images) > maxIngestImages {
		writeError(w, http.StatusBadRequest, "batch of %d images exceeds the limit of %d", len(req.Images), maxIngestImages)
		return
	}
	descriptors := make([]linalg.Vector, len(req.Images))
	for i, d := range req.Images {
		descriptors[i] = linalg.Vector(d)
	}
	first, err := s.engine.AddImages(r.Context(), descriptors)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, AddImagesResponse{
		First:  first,
		Added:  len(descriptors),
		Images: s.engine.NumImages(),
	})
}

// StartSessionRequest is the payload of POST /api/sessions.
type StartSessionRequest struct {
	Query int `json:"query"`
}

// StartSessionResponse is the response of POST /api/sessions.
type StartSessionResponse struct {
	SessionID int `json:"session_id"`
}

func (s *Server) handleStartSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req StartSessionRequest
	if !decodeJSON(w, r, maxJSONBody, &req) {
		return
	}
	session, err := s.engine.StartSession(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, StartSessionResponse{SessionID: s.addSession(session)})
}

// JudgeRequest is the payload of POST /api/sessions/judge.
type JudgeRequest struct {
	SessionID int `json:"session_id"`
	Judgments []struct {
		Image    int  `json:"image"`
		Relevant bool `json:"relevant"`
	} `json:"judgments"`
}

// JudgeResponse reports the total number of judgments in the session.
type JudgeResponse struct {
	Judgments int `json:"judgments"`
}

func (s *Server) handleJudge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req JudgeRequest
	if !decodeJSON(w, r, maxJSONBody, &req) {
		return
	}
	session, ok := s.session(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %d", req.SessionID)
		return
	}
	// All-or-nothing: every index is checked before any judgment is
	// recorded. The collection only grows, so an index in range here still
	// is when Judge re-checks it, and Judge's other refusal, a committed
	// session, stops the loop at its first judgment.
	n := s.engine.NumImages()
	for _, j := range req.Judgments {
		if j.Image < 0 || j.Image >= n {
			writeError(w, http.StatusBadRequest, "judged image %d out of range [0,%d): no judgment of the batch was recorded", j.Image, n)
			return
		}
	}
	for _, j := range req.Judgments {
		if err := session.Judge(j.Image, j.Relevant); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, JudgeResponse{Judgments: session.NumJudgments()})
}

// RefineRequest is the payload of POST /api/sessions/refine.
type RefineRequest struct {
	SessionID int    `json:"session_id"`
	Scheme    string `json:"scheme"`
	K         int    `json:"k"`
}

// RefineResponse carries the re-ranked results.
type RefineResponse struct {
	Scheme  string       `json:"scheme"`
	Results []ResultJSON `json:"results"`
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req RefineRequest
	if !decodeJSON(w, r, maxJSONBody, &req) {
		return
	}
	session, ok := s.session(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %d", req.SessionID)
		return
	}
	if req.K, ok = s.resultK(w, req.K); !ok {
		return
	}
	if req.Scheme == "" {
		req.Scheme = string(retrieval.SchemeLRFCSVM)
	}
	kind, err := retrieval.ParseScheme(req.Scheme)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, s.cfg.TrainTimeout)
	defer cancel()
	results, err := session.Refine(ctx, kind, req.K)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, RefineResponse{Scheme: string(kind), Results: results})
}

// CommitRequest is the payload of POST /api/sessions/commit.
type CommitRequest struct {
	SessionID int `json:"session_id"`
}

// CommitResponse reports the new log size.
type CommitResponse struct {
	LogSessions int `json:"log_sessions"`
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req CommitRequest
	if !decodeJSON(w, r, maxJSONBody, &req) {
		return
	}
	session, ok := s.session(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %d", req.SessionID)
		return
	}
	if err := session.Commit(r.Context()); err != nil {
		writeEngineError(w, r, err)
		return
	}
	s.dropSession(req.SessionID)
	writeJSON(w, http.StatusOK, CommitResponse{LogSessions: s.engine.NumLogSessions()})
}
