package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// TestServerMatchesEngine sends random requests to a server over HTTP and
// makes the same operations, beside it, on a twin retrieval.Engine called
// directly over the same rows and log. Every answer must be the status and
// the body the twin and serverModel make of the request. The server's own
// state is all the model holds: TestEngineMatchesModel holds the engine to
// the reference model, so the server is held to that model too. A failure
// prints the requests that led there and the fewest of its steps found to
// fail the same way. A seed is all that replays a subtest:
// go test -run 'TestServerMatchesEngine/^seed=7$' ./internal/server
func TestServerMatchesEngine(t *testing.T) {
	seeds := uint64(32)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runServerDriver(t, seed) })
	}
}

// Each test below pins a regime, a behaviour the driver must keep reaching,
// to a seed that reaches it.
func TestStatusEndpoint(t *testing.T)                          { pin(t, "status", 1) }
func TestStatusReportsShards(t *testing.T)                     { pin(t, "status-grown", 2) }
func TestQueryEndpoint(t *testing.T)                           { pin(t, "query-200", 3) }
func TestQueryEndpointErrors(t *testing.T)                     { pin(t, "query-400", 4) }
func TestResultLengthRule(t *testing.T)                        { pin(t, "k-negative", 5) }
func TestQueryKCapped(t *testing.T)                            { pin(t, "k-capped", 6) }
func TestFullFeedbackFlow(t *testing.T)                        { pin(t, "commit-200", 7) }
func TestJudgeBatchIsAllOrNothing(t *testing.T)                { pin(t, "batch-refused", 8) }
func TestRefineUnknownSessionAndScheme(t *testing.T)           { pin(t, "unknown-scheme", 10) }
func TestMethodNotAllowed(t *testing.T)                        { pin(t, "method-405", 9) }
func TestAddImagesEndpoint(t *testing.T)                       { pin(t, "ingest-200", 11) }
func TestAddImagesErrors(t *testing.T)                         { pin(t, "ingest-400", 12) }
func TestJournalFailureIsServerError(t *testing.T)             { pin(t, "journal-500", 13) }
func TestJudgeAndRefineAfterCommitReturnNotFound(t *testing.T) { pin(t, "committed-404", 14) }
func TestRefineWithoutJudgmentsRejected(t *testing.T)          { pin(t, "unjudged-400", 15) }
func TestSessionTTLEviction(t *testing.T)                      { pin(t, "ttl-eviction", 16) }
func TestMaxSessionsEvictsLRU(t *testing.T)                    { pin(t, "lru-eviction", 21) }
func TestClosedServerRejectsRequests(t *testing.T)             { pin(t, "server-closed-503", 18) }
func TestServerCloseRejectsWith503(t *testing.T)               { pin(t, "server-closed-503", 19) }
func TestEngineShutdownIs503Not499(t *testing.T)               { pin(t, "closed-503", 20) }
func TestCancelledRequestIs499(t *testing.T)                   { pin(t, "cancelled-499", 23) }

// A descriptor whose squared norm overflows is refused before the journal
// sees it; should a non-finite score ever reach a response, the client gets a
// 500 with a body, not an empty 200.
func TestAddImagesRejectsNonFiniteDescriptor(t *testing.T) {
	pin(t, "not-finite-400", 22)
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, QueryResponse{Results: []ResultJSON{{Image: 1, Score: math.Inf(-1)}}})
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Fatalf("unencodable payload: status %d, body %q (%v); want 500 with an error body", rec.Code, rec.Body.String(), err)
	}
}

func pin(t *testing.T, regime string, seed uint64) {
	if seen := runServerDriver(t, seed); !seen[regime] {
		t.Errorf("seed %d no longer reaches %s, only %v", seed, regime, seen)
	}
}

// serverModel is the server's own state, which the twin engine does not
// hold: the sessions table and the rules the handlers apply around the
// engine.
type serverModel struct {
	cfg      Config
	now      time.Time    // the fake clock, but for the nanoseconds its readings add
	sessions []modelEntry // least recently used first
	nextID   int
	closed   bool // Server.Close: every API request is refused, the table is empty
}

type modelEntry struct {
	id       int
	twin     *retrieval.Session
	lastUsed time.Time
}

// add registers a session, evicting the least recently used while the table
// is full.
func (m *serverModel) add(s *retrieval.Session) (id int, evicted bool) {
	for len(m.sessions) >= m.cfg.MaxSessions {
		m.sessions, evicted = m.sessions[1:], true
	}
	id, m.nextID = m.nextID, m.nextID+1
	m.sessions = append(m.sessions, modelEntry{id, s, m.now})
	return id, evicted
}

// touch looks a session up and marks it used.
func (m *serverModel) touch(id int) *retrieval.Session {
	i := slices.IndexFunc(m.sessions, func(e modelEntry) bool { return e.id == id })
	if i < 0 {
		return nil
	}
	e := m.sessions[i]
	e.lastUsed = m.now
	m.sessions = append(slices.Delete(m.sessions, i, i+1), e)
	return e.twin
}

func (m *serverModel) drop(id int) {
	m.sessions = slices.DeleteFunc(m.sessions, func(e modelEntry) bool { return e.id == id })
}

// sweep evicts every session idle for the TTL or longer.
func (m *serverModel) sweep() int {
	n := len(m.sessions)
	m.sessions = slices.DeleteFunc(m.sessions, func(e modelEntry) bool { return m.now.Sub(e.lastUsed) >= m.cfg.SessionTTL })
	return n - len(m.sessions)
}

// resultK is the result-length rule: 0 is DefaultK, beyond MaxK is MaxK,
// below 0 is refused.
func (m *serverModel) resultK(k int) (int, bool) {
	if k == 0 {
		return m.cfg.DefaultK, true
	}
	return min(k, m.cfg.MaxK), k > 0
}

// want is an answer: its status, and a 200's payload or what an error's
// message contains.
type want struct {
	status int
	body   any
	err    string
}

// answer is how the server answers an outcome of the engine.
func answer(err error) want {
	switch {
	case errors.Is(err, retrieval.ErrEngineClosed):
		return want{status: http.StatusServiceUnavailable, err: "server is shutting down: " + err.Error()}
	case errors.Is(err, retrieval.ErrJournal):
		return want{status: http.StatusInternalServerError, err: err.Error()}
	case errors.Is(err, context.Canceled):
		return want{status: statusClientClosedRequest, err: err.Error()}
	}
	return want{status: http.StatusBadRequest, err: err.Error()}
}

func resultsJSON(rs []retrieval.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = ResultJSON{r.Image, r.Score}
	}
	return out
}

// flakyJournal is a JournalSink whose next append fails once it is armed.
type flakyJournal struct{ armed atomic.Bool }

func (j *flakyJournal) fail() error {
	if j.armed.CompareAndSwap(true, false) {
		return errors.New("no space left on device")
	}
	return nil
}

func (j *flakyJournal) AppendSession(feedbacklog.Session) error { return j.fail() }
func (j *flakyJournal) AppendImages([]linalg.Vector) error      { return j.fail() }

// routes are the server's routes, with the endpoint label /metrics counts
// them under and the method each takes.
var routes = []struct{ path, endpoint, method string }{
	{"/api/status", "status", http.MethodGet}, {"/api/query", "query", http.MethodGet},
	{"/api/images", "images", http.MethodPost}, {"/api/sessions", "sessions", http.MethodPost},
	{"/api/sessions/judge", "judge", http.MethodPost}, {"/api/sessions/refine", "refine", http.MethodPost},
	{"/api/sessions/commit", "commit", http.MethodPost}, {"/metrics", "metrics", http.MethodGet},
}

type serverDriver struct {
	rng     *linalg.RNG // the current step's: a step draws the same whichever steps ran before it
	clock   fakeClock
	m       serverModel
	e, twin *retrieval.Engine
	flaky   [2]*flakyJournal // e's and the twin's
	s       *Server
	h       http.Handler
	srv     *httptest.Server

	engineClosed bool
	ids          []int             // every session id this server handed out, for requests naming gone ones
	committed    map[int]bool      // the ids of sessions committed on this server
	tally        map[[2]string]int // the answers of this server, by endpoint and code
	ops          []string
	seen         map[string]bool // the regimes passed through
}

// runServerDriver runs a seed's 200 steps and returns the regimes they
// passed through; on a disagreement it shrinks the steps and fails.
func runServerDriver(t *testing.T, seed uint64) map[string]bool {
	all := make([]int, 200)
	for i := range all {
		all[i] = i + 1
	}
	seen, f := driveServer(seed, all)
	if f != nil {
		first := func(msg string) string { line, _, _ := strings.Cut(msg, "\n"); return line }
		steps := shrink(all, func(steps []int) bool {
			_, g := driveServer(seed, steps)
			return g != nil && first(g.msg) == first(f.msg)
		})
		_, g := driveServer(seed, steps)
		t.Fatalf("%s\nafter these requests:\n%s\n\nsteps %v alone fail the same way, in %d requests:\n%s", f.msg, f.ops, steps, strings.Count(g.ops, "\n")+1, g.ops)
	}
	return seen
}

// failure is how a run ends that disagreed: the first disagreement and the
// requests that led there.
type failure struct{ msg, ops string }

// disagreement is what check panics with, to end the run.
type disagreement string

// shrink is delta debugging over which steps run: it drops ever smaller runs
// of the steps while fails holds without them, and returns the fewest found.
func shrink(steps []int, fails func([]int) bool) []int {
	for n := 2; len(steps) > 1; {
		chunk, dropped := (len(steps)+n-1)/n, false
		for i := 0; i < len(steps) && !dropped; i += chunk {
			rest := slices.Concat(steps[:i], steps[min(i+chunk, len(steps)):])
			if dropped = fails(rest); dropped {
				steps, n = rest, max(n-1, 2)
			}
		}
		if !dropped && n >= len(steps) {
			break
		} else if !dropped {
			n = min(2*n, len(steps))
		}
	}
	return steps
}

func driveServer(seed uint64, steps []int) (seen map[string]bool, f *failure) {
	rng := linalg.NewRNG(seed)
	d := &serverDriver{rng: rng, seen: map[string]bool{}}
	d.m.cfg = Config{SessionTTL: time.Hour, MaxSessions: 2 + rng.Intn(5), MaxK: 4 + rng.Intn(20), now: d.clock.Now}
	d.m.cfg.DefaultK = 1 + rng.Intn(d.m.cfg.MaxK)
	rows := d.rows(20 + rng.Intn(30))
	log := feedbacklog.NewLog(len(rows))
	stepSeeds := make([]uint64, 200)
	for i := range stepSeeds {
		stepSeeds[i] = rng.Uint64()
	}
	defer func() {
		if d.srv != nil {
			d.srv.Close()
			d.s.Close()
		}
		if p := recover(); p != nil { // a handler that panics disagrees too
			msg, ok := p.(disagreement)
			if !ok {
				msg = disagreement(fmt.Sprintf("panic: %v\n%s", p, debug.Stack()))
			}
			f = &failure{string(msg), strings.Join(d.ops, "\n")}
		}
	}()
	d.open(rows, log, rows, log)
	for _, step := range steps {
		d.rng = linalg.NewRNG(stepSeeds[step-1])
		d.step()
		if step%16 == 0 {
			d.checkState()
		}
	}
	d.checkState()
	return d.seen, nil
}

// open starts engines over the rows and logs and a server over the first.
func (d *serverDriver) open(rows []linalg.Vector, log *feedbacklog.Log, twinRows []linalg.Vector, twinLog *feedbacklog.Log) {
	d.flaky = [2]*flakyJournal{{}, {}}
	var err error
	d.e, err = retrieval.NewEngine(rows, log.Clone(), retrieval.Options{Journal: d.flaky[0]})
	d.check(err == nil, "%v", err)
	d.twin, err = retrieval.NewEngine(twinRows, twinLog.Clone(), retrieval.Options{Journal: d.flaky[1]})
	d.check(err == nil, "%v", err)
	d.s = NewWithConfig(d.e, d.m.cfg)
	d.h = d.s.Handler()
	d.srv = httptest.NewServer(d.h)
	d.m.sessions, d.m.nextID, d.m.closed, d.engineClosed = nil, 1, false, false
	d.ids, d.committed, d.tally = nil, map[int]bool{}, map[[2]string]int{}
}

// restart brings up a new server over engines rebuilt from what each engine
// holds, so a difference between the two outlives it.
func (d *serverDriver) restart() {
	d.srv.Close()
	d.s.Close()
	set, log := d.e.SnapshotWith(nil)
	twinSet, twinLog := d.twin.SnapshotWith(nil)
	d.logf("restart")
	d.open(set.Rows(), log, twinSet.Rows(), twinLog)
}

func (d *serverDriver) logf(format string, args ...any) {
	d.ops = append(d.ops, fmt.Sprintf("%4d  ", len(d.ops))+fmt.Sprintf(format, args...))
}

// reach notes a regime the run passed through, when ok.
func (d *serverDriver) reach(regime string, ok bool) {
	if ok {
		d.seen[regime] = true
	}
}

// check ends the run as a disagreement unless ok.
func (d *serverDriver) check(ok bool, format string, args ...any) {
	if !ok {
		panic(disagreement(fmt.Sprintf(format, args...)))
	}
}

// rows draws descriptors from four clusters along the first axis.
func (d *serverDriver) rows(n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = linalg.Vector{float64(4*d.rng.Intn(4)) + d.rng.Normal(0, 0.8), d.rng.Normal(0, 0.8), d.rng.Normal(0, 0.8)}
	}
	return out
}

// image draws an image, now and then one just outside the collection.
func (d *serverDriver) image() int { return d.rng.Intn(d.twin.NumImages()+3) - 1 }

// k draws a requested result-list length: mostly a page, now and then the
// default, a negative one or one beyond MaxK.
func (d *serverDriver) k() int {
	switch r := d.rng.Intn(16); {
	case r < 10:
		return 1 + d.rng.Intn(8)
	case r < 12:
		return 0
	case r < 14:
		return -1 - d.rng.Intn(3)
	}
	return d.m.cfg.MaxK + 1 + d.rng.Intn(40)
}

// ctx draws a request's context, now and then a cancelled one.
func (d *serverDriver) ctx() context.Context {
	if d.rng.Bool(0.05) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	return context.Background()
}

// sessionID names a live session mostly, otherwise one the server handed out
// before or one it never did.
func (d *serverDriver) sessionID() int {
	if len(d.m.sessions) > 0 && d.rng.Bool(0.85) {
		return d.m.sessions[d.rng.Intn(len(d.m.sessions))].id
	}
	if len(d.ids) > 0 && d.rng.Bool(0.7) {
		return d.ids[d.rng.Intn(len(d.ids))]
	}
	return d.m.nextID + d.rng.Intn(3) - 2
}

func (d *serverDriver) step() {
	switch r := d.rng.Intn(100); {
	case r < 25 && (d.m.closed || d.engineClosed):
		d.restart()
	case r < 2:
		d.e.Close()
		d.twin.Close()
		d.engineClosed = true
		d.logf("Engine.Close")
	case r < 4:
		d.s.Close()
		d.m.sessions, d.m.closed = nil, true
		d.logf("Server.Close")
	case r < 7:
		d.flaky[0].armed.Store(true)
		d.flaky[1].armed.Store(true)
		d.logf("arm both journals")
	case r < 12:
		idle := time.Duration(d.rng.Intn(90)) * time.Minute
		d.m.now = d.m.now.Add(idle)
		d.clock.Advance(idle)
		want := 0
		if !d.m.closed {
			want = d.m.sweep()
		}
		got := d.s.Sweep()
		d.logf("advance the clock by %v and sweep -> %d", idle, got)
		d.check(got == want, "the sweep evicted %d sessions, the model %d", got, want)
		d.reach("ttl-eviction", got > 0)
	case r < 15:
		route := routes[d.rng.Intn(len(routes))]
		method := map[string]string{http.MethodGet: http.MethodPost, http.MethodPost: http.MethodGet}[route.method]
		if d.rng.Bool(0.3) {
			method = []string{http.MethodPut, http.MethodDelete, http.MethodPatch}[d.rng.Intn(3)]
		}
		d.send(method, route.path, "", nil, func(context.Context) want {
			d.reach("method-405", true)
			return want{status: http.StatusMethodNotAllowed, err: "use " + route.method}
		})
	case r < 18:
		d.status()
	case r < 30:
		d.ingest()
	case r < 45:
		d.query()
	case r < 53:
		d.startSession()
	case r < 70:
		d.judge()
	case r < 88:
		d.refine()
	default:
		d.commit()
	}
}

// send makes one request and checks the answer against the one expect makes
// of it. expect is asked only for a request that reaches its handler: a
// closed server refuses every API route first, and a body that is not JSON
// is refused before anything is looked up.
func (d *serverDriver) send(method, path, query string, body any, expect func(ctx context.Context) want) {
	i := slices.IndexFunc(routes, func(r struct{ path, endpoint, method string }) bool { return r.path == path })
	route, raw := routes[i], []byte(nil)
	if body != nil {
		raw, _ = json.Marshal(body)
		if d.rng.Bool(0.03) {
			raw = raw[:len(raw)/2]
		}
	}
	ctx := d.ctx()
	var w want
	switch {
	case d.m.closed && path != "/metrics":
		w = want{status: http.StatusServiceUnavailable, err: "server is shutting down"}
		d.reach("server-closed-503", true)
	case body != nil && !json.Valid(raw):
		w = want{status: http.StatusBadRequest, err: "invalid request body"}
	default:
		w = expect(ctx)
	}
	status, got := d.do(ctx, method, path+query, raw)
	d.logf("%s %s%s %s%s -> %d", method, path, query, raw, map[bool]string{true: " (cancelled)"}[ctx.Err() != nil], status)
	d.tally[[2]string{route.endpoint, strconv.Itoa(status)}]++
	d.check(status == w.status, "answered %d (%s), want %d", status, bytes.TrimSpace(got), w.status)
	if status != http.StatusOK {
		var e errorResponse
		err := json.Unmarshal(got, &e)
		d.check(err == nil && e.Error != "" && strings.Contains(e.Error, w.err), "error body %q, want one saying %q", got, w.err)
		d.reach("cancelled-499", status == statusClientClosedRequest)
		d.reach("journal-500", status == http.StatusInternalServerError)
		d.reach("closed-503", status == http.StatusServiceUnavailable && d.engineClosed && !d.m.closed)
		return
	}
	if path == "/api/status" { // the admission counters and the backend are not the model's
		var st StatusResponse
		d.check(json.Unmarshal(got, &st) == nil, "status body %s", got)
		st.Admission, st.KernelBackend = AdmissionStatus{}, ""
		got, _ = json.Marshal(st)
	}
	wantBody, _ := json.Marshal(w.body)
	d.check(bytes.Equal(bytes.TrimSpace(got), wantBody), "answered %s, want %s", bytes.TrimSpace(got), wantBody)
}

// do sends a request over the listener, or a cancelled one through the
// handler itself, whose context is the one the handler sees.
func (d *serverDriver) do(ctx context.Context, method, target string, body []byte) (int, []byte) {
	if ctx.Err() != nil {
		rec := httptest.NewRecorder()
		d.h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx))
		return rec.Code, rec.Body.Bytes()
	}
	req, err := http.NewRequest(method, d.srv.URL+target, bytes.NewReader(body))
	d.check(err == nil, "%v", err)
	resp, err := d.srv.Client().Do(req)
	d.check(err == nil, "%s %s: %v", method, target, err)
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	d.check(err == nil, "%v", err)
	return resp.StatusCode, got
}

func (d *serverDriver) status() {
	d.send(http.MethodGet, "/api/status", "", nil, func(context.Context) want {
		c := d.twin.Collection()
		d.reach("status", true)
		d.reach("status-grown", c.Epoch > 1)
		return want{status: http.StatusOK, body: StatusResponse{Images: c.Images, Dim: c.Dim, Shards: c.Shards, Epoch: c.Epoch,
			LogSessions: d.twin.NumLogSessions(), ActiveSessions: len(d.m.sessions)}}
	})
}

// checkState compares what /api/status shows with the twin and the model,
// and the requests /metrics counted with the answers this server gave.
func (d *serverDriver) checkState() {
	d.status()
	_, text := d.do(context.Background(), http.MethodGet, "/metrics", nil)
	counted := map[[2]string]int{}
	for _, m := range requestsTotal.FindAllStringSubmatch(string(text), -1) {
		counted[[2]string{m[1], m[2]}], _ = strconv.Atoi(m[3])
	}
	d.check(maps.Equal(counted, d.tally), "/metrics counts the requests %v, the server answered %v", counted, d.tally)
	d.tally[[2]string{"metrics", "200"}]++
}

var requestsTotal = regexp.MustCompile(`(?m)^cbir_http_requests_total\{endpoint="(\w+)",code="(\w+)"\} (\d+)$`)

func (d *serverDriver) query() {
	image, k, params := d.image(), d.k(), url.Values{}
	params.Set("image", strconv.Itoa(image))
	if k != 0 || d.rng.Bool(0.5) {
		params.Set("k", strconv.Itoa(k))
	}
	bad := d.rng.Intn(30)
	if bad < 2 {
		params.Set([]string{"image", "k"}[bad], "x")
	}
	d.send(http.MethodGet, "/api/query", "?"+params.Encode(), nil, func(ctx context.Context) want {
		n, ok := d.m.resultK(k)
		if bad < 2 || !ok {
			d.reach("query-400", true)
			d.reach("k-negative", bad >= 2)
			return want{status: http.StatusBadRequest, err: "invalid"}
		}
		rs, err := d.twin.InitialQuery(ctx, image, n)
		if err != nil {
			d.reach("query-400", answer(err).status == http.StatusBadRequest)
			return answer(err)
		}
		d.reach("query-200", true)
		d.reach("k-capped", k > d.m.cfg.MaxK)
		return want{status: http.StatusOK, body: QueryResponse{Query: image, K: n, Results: resultsJSON(rs)}}
	})
}

func (d *serverDriver) ingest() {
	rows, variant := d.rows(1+d.rng.Intn(5)), d.rng.Intn(16)
	switch variant {
	case 0:
		rows = nil
	case 1:
		rows[0] = rows[0][:2]
	case 2:
		rows[0][d.rng.Intn(3)] = []float64{1e200, -1e200}[d.rng.Intn(2)]
	}
	d.send(http.MethodPost, "/api/images", "", map[string][]linalg.Vector{"images": rows}, func(ctx context.Context) want {
		if len(rows) == 0 {
			d.reach("ingest-400", true)
			return want{status: http.StatusBadRequest, err: "no images"}
		}
		first, err := d.twin.AddImages(ctx, rows)
		if err != nil {
			d.reach("ingest-400", answer(err).status == http.StatusBadRequest)
			d.reach("not-finite-400", answer(err).status == http.StatusBadRequest && variant == 2)
			return answer(err)
		}
		d.reach("ingest-200", true)
		return want{status: http.StatusOK, body: AddImagesResponse{First: first, Added: len(rows), Images: d.twin.NumImages()}}
	})
}

func (d *serverDriver) startSession() {
	q := d.image()
	d.send(http.MethodPost, "/api/sessions", "", StartSessionRequest{Query: q}, func(context.Context) want {
		ts, err := d.twin.StartSession(q)
		if err != nil {
			return want{status: http.StatusBadRequest, err: err.Error()}
		}
		id, evicted := d.m.add(ts)
		d.ids = append(d.ids, id)
		d.reach("lru-eviction", evicted)
		return want{status: http.StatusOK, body: StartSessionResponse{SessionID: id}}
	})
}

// session looks the session a request names up, and notes a request naming a
// committed one.
func (d *serverDriver) session(id int) *retrieval.Session {
	ts := d.m.touch(id)
	d.reach("committed-404", ts == nil && d.committed[id])
	return ts
}

var errUnknownSession = want{status: http.StatusNotFound, err: "unknown or expired session"}

func (d *serverDriver) judge() {
	req, out := JudgeRequest{SessionID: d.sessionID()}, d.rng.Bool(0.15)
	for i := d.rng.Intn(6); i > 0; i-- {
		image := d.rng.Intn(d.twin.NumImages())
		if out && i == 1 {
			image = []int{-1, d.twin.NumImages() + d.rng.Intn(3)}[d.rng.Intn(2)]
		}
		req.Judgments = append(req.Judgments, struct {
			Image    int  `json:"image"`
			Relevant bool `json:"relevant"`
		}{image, d.rng.Bool(0.5)})
	}
	d.send(http.MethodPost, "/api/sessions/judge", "", req, func(context.Context) want {
		ts := d.session(req.SessionID)
		if ts == nil {
			return errUnknownSession
		}
		for _, j := range req.Judgments {
			if j.Image < 0 || j.Image >= d.twin.NumImages() {
				d.reach("batch-refused", true)
				return want{status: http.StatusBadRequest, err: "no judgment of the batch was recorded"}
			}
		}
		for _, j := range req.Judgments {
			d.check(ts.Judge(j.Image, j.Relevant) == nil, "the twin refused a judgment of a live session")
		}
		return want{status: http.StatusOK, body: JudgeResponse{Judgments: ts.NumJudgments()}}
	})
}

func (d *serverDriver) refine() {
	schemes := []string{"", "euclidean", "rf-svm", "lrf-2svms", "lrf-csvm", "no-such-scheme"}
	req := RefineRequest{SessionID: d.sessionID(), Scheme: schemes[d.rng.Intn(31)/6], K: d.k()}
	d.send(http.MethodPost, "/api/sessions/refine", "", req, func(ctx context.Context) want {
		ts := d.session(req.SessionID)
		if ts == nil {
			return errUnknownSession
		}
		k, ok := d.m.resultK(req.K)
		if !ok {
			d.reach("k-negative", true)
			return want{status: http.StatusBadRequest, err: "invalid k"}
		}
		scheme := cmp.Or(req.Scheme, "lrf-csvm")
		if !slices.Contains(schemes[1:5], scheme) {
			d.reach("unknown-scheme", true)
			return want{status: http.StatusBadRequest, err: "unknown scheme"}
		}
		rs, err := ts.Refine(ctx, retrieval.SchemeKind(scheme), k)
		if err != nil {
			d.reach("unjudged-400", ts.NumJudgments() == 0 && scheme != "euclidean")
			return answer(err)
		}
		d.reach("k-capped", req.K > d.m.cfg.MaxK)
		return want{status: http.StatusOK, body: RefineResponse{Scheme: scheme, Results: resultsJSON(rs)}}
	})
}

func (d *serverDriver) commit() {
	id := d.sessionID()
	d.send(http.MethodPost, "/api/sessions/commit", "", CommitRequest{SessionID: id}, func(ctx context.Context) want {
		ts := d.session(id)
		if ts == nil {
			return errUnknownSession
		}
		if err := ts.Commit(ctx); err != nil {
			return answer(err)
		}
		d.m.drop(id)
		d.committed[id] = true
		d.reach("commit-200", true)
		return want{status: http.StatusOK, body: CommitResponse{LogSessions: d.twin.NumLogSessions()}}
	})
}
