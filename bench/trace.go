package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/storage"
)

// The traced run gives the per-layer numbers. Nothing inside the program is
// instrumented: every span is taken here, around a call into a layer's
// public functions. One logical request is replayed at successive depths —
// over a loopback socket, at the handler, at the engine, at the ranking
// scheme, at the trainer — each depth its own execution on the same pinned
// state, and each depth's span names the next-shallower one as its parent.
// A layer's self time is its span minus the spans one depth down.

// Layers, shallowest first.
const (
	layerTransport   = "server.transport"
	layerHandler     = "server.handler"
	layerRetrieval   = "retrieval"
	layerCore        = "core"
	layerSVM         = "svm"
	layerKernel      = "kernel"
	layerFeedbackLog = "feedbacklog"
	layerStorage     = "storage"
	layerMetrics     = "metrics"
)

// span is one timed call into a layer. Spans of one logical request share a
// trace id; a span's parent is the span of the next-shallower replay depth.
type span struct {
	TraceID  int64            `json:"trace_id"`
	SpanID   int64            `json:"span_id"`
	ParentID int64            `json:"parent_id"`
	Class    string           `json:"class"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s span) duration() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin    time.Time
	spans     []span
	nextTrace int64
	// off makes time() measure without recording: the baseline of
	// trace.overhead_share.
	off bool
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newTrace() int64 {
	t.nextTrace++
	return t.nextTrace
}

// reserve allocates n consecutive span ids, so the spans of one request can
// name each other as parents whatever order they are taken in.
func (t *tracer) reserve(n int) int64 {
	first := int64(len(t.spans)) + 1
	t.spans = append(t.spans, make([]span, n)...)
	return first
}

// fill runs fn as the span with a reserved id and returns its duration.
func (t *tracer) fill(id, trace, parent int64, class, layer, name string, fn func()) time.Duration {
	start := time.Since(t.origin)
	fn()
	end := time.Since(t.origin)
	t.spans[id-1] = span{
		TraceID: trace, SpanID: id, ParentID: parent,
		Class: class, Layer: layer, Name: name,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(),
	}
	return end - start
}

// time runs fn as one span and returns the span's id (0 when recording is
// off) and duration.
func (t *tracer) time(trace, parent int64, class, layer, name string, fn func()) (int64, time.Duration) {
	if t.off {
		start := time.Now()
		fn()
		return 0, time.Since(start)
	}
	id := t.reserve(1)
	return id, t.fill(id, trace, parent, class, layer, name, fn)
}

// count attaches counts to a recorded span.
func (t *tracer) count(id int64, counts map[string]int64) {
	if id > 0 {
		t.spans[id-1].Counts = counts
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is one in-process engine + server over its own log and journal.
type stack struct {
	engine  *retrieval.Engine
	srv     *server.Server
	handler http.Handler
	journal *storage.Journal
}

func newStack(visual []linalg.Vector, log *feedbacklog.Log, journalPath string, fsync storage.FsyncPolicy) (*stack, time.Duration, error) {
	journal, visual, _, err := storage.OpenJournal(journalPath, visual, log, storage.JournalOptions{Fsync: fsync})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	engine, err := retrieval.NewEngine(visual, log, retrieval.Options{Journal: journal, RefineTimeout: 30 * time.Second})
	build := time.Since(start)
	if err != nil {
		journal.Close()
		return nil, 0, err
	}
	// cbirserver's flag defaults, plus the session cap the workloads run with.
	srv := server.NewWithConfig(engine, server.Config{MaxSessions: 1000000, QueryTimeout: 10 * time.Second, TrainTimeout: 30 * time.Second})
	return &stack{engine: engine, srv: srv, handler: srv.Handler(), journal: journal}, build, nil
}

func (s *stack) close() {
	s.srv.Close()
	s.engine.Close()
	s.journal.Close()
}

// serve calls the handler in-process, as depth 1 of a replay.
func (s *stack) serve(method, target string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	return rec
}

// call is serve + decode for the untimed set-up requests of a replay.
func (s *stack) call(method, target string, body, out interface{}) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if body == nil {
		raw = nil
	}
	rec := s.serve(method, target, raw)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	ctx  context.Context
	w    workload
	data *dataset
	rep  *report
	t    *tracer

	main    *stack // what the loopback listener serves; advances like a real server
	scratch *stack // takes the handler- and engine-depth replays of mutations
	baseURL string
	client  *http.Client

	// The bench's own view of main's pinned state, for the depths below the
	// engine: the collection, a batch over it, and the log columns.
	visual       []linalg.Vector
	batch        *core.CollectionBatch
	cols         []*sparse.Vector
	colsSessions int

	// Raw layer objects for the deepest replay of mutations.
	rawLog     *feedbacklog.Log
	rawJournal *storage.Journal
	rawVisual  []linalg.Vector
	rawBatch   *core.CollectionBatch

	rotation    int                  // see replay
	saved       []*core.QueryContext // contexts kept for the probes
	agreeChecks int
	agreeFails  []string
}

// schemeOf mirrors retrieval.Engine's scheme table with the engine's
// defaults (zero options; coupled modality training on DefaultTrainWorkers).
func schemeOf(kind retrieval.SchemeKind) core.Scheme {
	switch kind {
	case retrieval.SchemeEuclidean:
		return core.Euclidean{}
	case retrieval.SchemeRFSVM:
		return core.RFSVM{}
	case retrieval.SchemeLRF2SVMs:
		return core.LRF2SVMs{}
	default:
		return core.LRFCSVM{Params: core.CSVMParams{Coupled: coupledConfig()}}
	}
}

func coupledConfig() core.CoupledConfig {
	return core.CoupledConfig{Workers: retrieval.DefaultTrainWorkers}
}

// runTraced executes the traced run of one workload.
func runTraced(ctx context.Context, w workload, cfg runConfig) (*report, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "trace-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	data, err := generate(w.Shape, cfg.Seed)
	if err != nil {
		return nil, err
	}
	featuresPath, logPath, err := data.save(dir)
	if err != nil {
		return nil, err
	}
	env := baseEnvironment(cfg.Seed, cfg.Seconds)
	env.Loops = loopsFor(w.TraceLoopsPerSecond, cfg.Seconds)
	rep := newReport(w, true, env)
	r := &tracedRun{ctx: ctx, w: w, data: data, rep: rep, t: newTracer()}
	cpuBefore := readCPUTimes()

	fsync, err := storage.ParseFsyncPolicy(w.Fsync)
	if err != nil {
		return nil, err
	}
	// Load the generated files the way the server does; time the load.
	var visual []linalg.Vector
	var log *feedbacklog.Log
	tid := r.t.newTrace()
	_, loadDur := r.t.time(tid, 0, "setup", layerStorage, "LoadFeatures", func() {
		visual, _, err = storage.LoadFeatures(featuresPath)
	})
	if err != nil {
		return nil, err
	}
	rep.Metrics["storage.load_features_ms"] = ms(loadDur)
	if log, err = storage.LoadLog(logPath); err != nil {
		return nil, err
	}

	var builds []float64
	var build time.Duration
	if r.main, build, err = newStack(visual, log, filepath.Join(dir, "main.wal"), fsync); err != nil {
		return nil, err
	}
	defer r.main.close()
	builds = append(builds, ms(build))
	if r.scratch, build, err = newStack(visual, log.Clone(), filepath.Join(dir, "scratch.wal"), fsync); err != nil {
		return nil, err
	}
	defer r.scratch.close()
	builds = append(builds, ms(build))
	rep.Metrics["retrieval.engine_build_ms"] = median(builds)
	rep.Env.KernelBackend = kernel.Backend()

	r.visual = append([]linalg.Vector(nil), visual...)
	_, batchDur := r.t.time(tid, 0, "setup", layerCore, "NewShardedCollectionBatch", func() {
		r.batch = core.NewShardedCollectionBatch(r.visual, 0)
	})
	rep.Metrics["core.batch_build_ms"] = ms(batchDur)
	r.rawLog = log.Clone()
	r.rawVisual = append([]linalg.Vector(nil), visual...)
	r.rawBatch = core.NewShardedCollectionBatch(r.rawVisual, 0)
	if r.rawJournal, _, _, err = storage.OpenJournal(filepath.Join(dir, "raw.wal"), r.rawVisual, r.rawLog.Clone(), storage.JournalOptions{Fsync: fsync}); err != nil {
		return nil, err
	}
	defer r.rawJournal.Close()

	// Depth 0 goes through a real socket: an http.Server on a loopback
	// listener in this process, and one keep-alive client connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: r.main.handler}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = httpSrv.Serve(ln) // returns ErrServerClosed on Close
	}()
	defer func() {
		httpSrv.Close()
		<-serveDone
	}()
	r.baseURL = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 60 * time.Second}
	defer r.client.CloseIdleConnections()

	metricsBefore, err := scrapeMetrics(r.baseURL)
	if err != nil {
		return nil, err
	}

	if err := r.readLoops(data.queries(cfg.Seed, 0, env.Loops)); err != nil {
		return nil, err
	}
	if err := r.probes(); err != nil {
		return nil, err
	}
	if err := r.writeLoops(cfg.Seed); err != nil {
		return nil, err
	}
	if err := r.storageProbes(dir, visual); err != nil {
		return nil, err
	}
	if err := r.overhead(data.queries(cfg.Seed, 1, 120)); err != nil {
		return nil, err
	}

	metricsAfter, err := scrapeMetrics(r.baseURL)
	if err != nil {
		return nil, err
	}
	rep.Metrics["server.shed_total"] = metricsAfter.sum("cbir_admission_shed_total") - metricsBefore.sum("cbir_admission_shed_total")
	rep.Metrics["server.http_5xx_total"] = metricsAfter.sum("cbir_http_requests_total 5xx") - metricsBefore.sum("cbir_http_requests_total 5xx")
	rep.Env.noteInterference(cpuBefore)

	r.aggregate()
	rep.check("replay depths agree", len(r.agreeFails) == 0 && r.agreeChecks > 0,
		"%d replayed requests compared across depths, %d disagreed%s", r.agreeChecks, len(r.agreeFails), firstOf(r.agreeFails))

	tracePath := filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl")
	if err := r.t.write(tracePath); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(r.t.spans), tracePath))
	rep.Attempted = r.agreeChecks
	rep.Failed = len(r.agreeFails)
	return rep, nil
}

func firstOf(fails []string) string {
	if len(fails) == 0 {
		return ""
	}
	return ": " + fails[0]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// over sends one request over the loopback connection: depth 0.
func (r *tracedRun) over(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.ctx, method, r.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// queryContext is the ranking input the engine would build for this query
// and these judgments on the pinned state.
func (r *tracedRun) queryContext(q int, judged map[int]bool) *core.QueryContext {
	labeled := make([]core.LabeledExample, 0, len(judged))
	for img, rel := range judged {
		label := -1.0
		if rel {
			label = 1.0
		}
		labeled = append(labeled, core.LabeledExample{Index: img, Label: label})
	}
	sort.Slice(labeled, func(i, j int) bool { return labeled[i].Index < labeled[j].Index })
	log := r.main.engine.Log()
	r.cols = log.ExtendRelevanceVectors(r.cols, r.colsSessions)
	r.colsSessions = log.NumSessions()
	return &core.QueryContext{
		Visual:     r.visual,
		LogVectors: r.cols[:len(r.visual)],
		Query:      q,
		Labeled:    labeled,
		Batch:      r.batch,
		Ctx:        r.ctx,
	}
}

// agree compares the rankings different depths returned for one request.
func (r *tracedRun) agree(what string, lists ...[]server.ResultJSON) {
	r.agreeChecks++
	for d := 1; d < len(lists); d++ {
		if !sameRanking(lists[0], lists[d]) {
			r.agreeFails = append(r.agreeFails, fmt.Sprintf("%s: depth %d differs from depth 0", what, d))
			return
		}
	}
}

func sameRanking(a, b []server.ResultJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Image != b[i].Image || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func fromRanked(ranked []core.Ranked) []server.ResultJSON {
	out := make([]server.ResultJSON, len(ranked))
	for i, x := range ranked {
		out[i] = server.ResultJSON{Image: x.Index, Score: x.Score}
	}
	return out
}

func fromResults(results []retrieval.Result) []server.ResultJSON {
	out := make([]server.ResultJSON, len(results))
	for i, x := range results {
		out[i] = server.ResultJSON{Image: x.Image, Score: x.Score}
	}
	return out
}

// overhead measures what recording spans costs: the in-process handler's
// median on the same queries with recording on and off, alternating.
func (r *tracedRun) overhead(queries []int) error {
	var on, off []float64
	for i, q := range queries {
		target := fmt.Sprintf("/api/query?image=%d&k=%d", q, resultK)
		r.t.off = i%2 == 1
		_, d := r.t.time(r.t.newTrace(), 0, "overhead", layerHandler, "Handler.ServeHTTP /api/query", func() { r.main.serve(http.MethodGet, target, nil) })
		if r.t.off {
			off = append(off, us(d))
		} else {
			on = append(on, us(d))
		}
	}
	r.t.off = false
	r.rep.Metrics["trace.overhead_share"] = (median(on) - median(off)) / median(off)
	return nil
}

// aggregate turns spans into the per-layer metrics of the request classes.
func (r *tracedRun) aggregate() {
	self := selfTimes(r.t.spans)
	durBy := make(map[string][]float64)  // class|name → durations, ns
	selfBy := make(map[string][]float64) // class|name → self times, ns
	counts := make(map[string][]float64)
	for _, s := range r.t.spans {
		durBy[s.Class+"|"+s.Name] = append(durBy[s.Class+"|"+s.Name], float64(s.duration()))
		selfBy[s.Class+"|"+s.Name] = append(selfBy[s.Class+"|"+s.Name], float64(self[s.SpanID]))
		for k, v := range s.Counts {
			counts[s.Name+"|"+k] = append(counts[s.Name+"|"+k], float64(v))
		}
	}
	dur := func(class, name string) float64 { return median(durBy[class+"|"+name]) }
	// A median self time below zero is noise around a layer that adds
	// nothing measurable; it is reported as zero.
	own := func(class, name string) float64 { return math.Max(0, median(selfBy[class+"|"+name])) }
	m := r.rep.Metrics

	rankName := "RankTop " + r.w.Scheme
	chains := map[string][]string{
		classQuery:  {"GET /api/query", "Handler.ServeHTTP /api/query", "Engine.InitialQuery", "Euclidean.RankTop"},
		classRefine: {"POST /api/sessions/refine", "Handler.ServeHTTP /api/sessions/refine", "Session.Refine", rankName},
		classCommit: {"POST /api/sessions/commit", "Handler.ServeHTTP /api/sessions/commit", "Session.Commit"},
		classIngest: {"POST /api/images", "Handler.ServeHTTP /api/images", "Engine.AddImages"},
	}
	leaves := map[string][]string{
		classRefine: {"LRFCSVM.TrainingProblem", "TrainCoupled", "LRF2SVMs.Pretrain", "Pretrained2SVMs.RankTopAppend"},
		classCommit: {"Journal.AppendSession", "Log.AddSession"},
		classIngest: {"Journal.AppendImages", "CollectionBatch.Grow"},
	}
	for class, chain := range chains {
		m["server.transport_self_us."+class] = own(class, chain[0]) / 1e3
		m["server.handler_self_us."+class] = own(class, chain[1]) / 1e3
		// Everything below the transport should add up to the handler.
		var parts []float64
		for _, name := range chain[1:] {
			parts = append(parts, own(class, name))
		}
		for _, name := range leaves[class] {
			if len(durBy[class+"|"+name]) > 0 {
				parts = append(parts, dur(class, name))
			}
		}
		m["trace.residual_share."+class] = residualShare(dur(class, chain[1]), parts)
		r.rep.Latency[class+" d0 socket"] = summarize(linalg.Vector(durBy[class+"|"+chain[0]]).Scale(1e-6))
		r.rep.Latency[class+" d1 handler"] = summarize(linalg.Vector(durBy[class+"|"+chain[1]]).Scale(1e-6))
	}
	m["retrieval.initial_query_us"] = dur(classQuery, "Engine.InitialQuery") / 1e3
	m["core.euclid_scan_us"] = dur(classQuery, "Euclidean.RankTop") / 1e3
	m["retrieval.refine_self_us"] = own(classRefine, "Session.Refine") / 1e3
	m["retrieval.commit_self_us"] = own(classCommit, "Session.Commit") / 1e3
	m["retrieval.add_images_us_per_image"] = dur(classIngest, "Engine.AddImages") / 1e3 / ingestBurst
	m["core.batch_grow_us"] = dur(classIngest, "CollectionBatch.Grow") / 1e3
	m["feedbacklog.add_session_us"] = dur(classCommit, "Log.AddSession") / 1e3
	m["storage.append_session_us"] = dur(classCommit, "Journal.AppendSession") / 1e3
	m["storage.append_images_us_per_image"] = dur(classIngest, "Journal.AppendImages") / 1e3 / ingestBurst
	m["storage.fsyncs_per_commit"] = linalg.Vector(counts["Journal.AppendSession|fsyncs"]).Mean()
	m["storage.bytes_per_commit"] = linalg.Vector(counts["Journal.AppendSession|bytes"]).Mean()
	m["storage.append_retries"] = linalg.Vector(counts["Journal.AppendSession|retries"]).Sum()

	// The scheme split comes from the refine traces when the workload runs
	// that scheme, else from the probe replays on saved contexts.
	pick := func(name string) float64 {
		if v := durBy[classRefine+"|"+name]; len(v) > 0 {
			return median(v)
		}
		return dur("probe", name)
	}
	m["core.select_ms"] = pick("LRFCSVM.TrainingProblem") / 1e6
	m["core.train_coupled_ms"] = pick("TrainCoupled") / 1e6
	csvmClass := "probe"
	if r.w.Scheme == string(retrieval.SchemeLRFCSVM) {
		csvmClass = classRefine
	}
	m["core.final_scan_ms"] = own(csvmClass, "RankTop "+string(retrieval.SchemeLRFCSVM)) / 1e6
	m["core.svm_scan_ms"] = pick("Pretrained2SVMs.RankTopAppend") / 1e6
	m["core.retrainings"] = linalg.Vector(counts["TrainCoupled|retrainings"]).Mean()
	m["core.solver_iterations"] = linalg.Vector(counts["TrainCoupled|solver_iterations"]).Mean()
	m["core.label_flips"] = linalg.Vector(counts["TrainCoupled|label_flips"]).Mean()
	r.rep.Info["coupled problems traced count"] = float64(len(counts["TrainCoupled|retrainings"]))
	r.rep.Info["coupled labeled points mean count"] = linalg.Vector(counts["TrainCoupled|labeled"]).Mean()
	r.rep.Info["coupled unlabeled points mean count"] = linalg.Vector(counts["TrainCoupled|unlabeled"]).Mean()
}
