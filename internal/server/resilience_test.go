package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// countdownCtx reports itself cancelled after a fixed number of Err calls —
// the deterministic stand-in for a client that disconnects mid-scan. It
// reaches the scoring loops unwrapped because the handlers pass the request
// context straight through when no per-class timeout is configured.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(checks int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(checks))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// serveWithCtx runs one request through the full handler stack with an
// injected request context, bypassing the network so the "disconnect"
// point is exact.
func serveWithCtx(t *testing.T, h http.Handler, ctx context.Context, method, target string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(method, target, bytes.NewReader(buf))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	req = req.WithContext(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// A client that disconnects mid-scan must get the scan stopped (the
// countdown context stops being polled once cancelled checks trip) and the
// request accounted as client-closed, not as a server error. The collection
// spans two default shards, so the scan is at least two work units at any
// worker count: the one check the countdown allows lets the first unit run and
// a later one is refused.
func TestQueryClientDisconnectMidScan(t *testing.T) {
	rng := linalg.NewRNG(5)
	visual := make([]linalg.Vector, kernel.DefaultShardSize+100)
	for i := range visual {
		visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
	}
	engine, err := retrieval.NewEngine(visual, feedbacklog.NewLog(len(visual)), retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(engine, Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	ctx := newCountdownCtx(1)
	rr := serveWithCtx(t, h, ctx, http.MethodGet, "/api/query?image=3&k=5", nil)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d (%s), want 499", rr.Code, rr.Body.String())
	}
	if ctx.remaining.Load() >= 0 {
		t.Fatal("the scan never consumed the cancellation budget; nothing was cancelled mid-way")
	}
}

// An expired -query-timeout is one 504 with an error body, never a 200 over a
// ranking the scan did not finish.
func TestQueryDeadlineExpiredReturns504(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{QueryTimeout: time.Nanosecond})
	var errResp errorResponse
	resp := getJSON(t, srv.URL+"/api/query?image=3&k=5", &errResp)
	if resp.StatusCode != http.StatusGatewayTimeout || errResp.Error == "" {
		t.Fatalf("status = %d (%+v), want 504 with an error", resp.StatusCode, errResp)
	}
}

// serverHandlerOf digs the live *Server handler out of the httptest server
// set up by testServerWithConfig (its Config handed the handler over
// already; the helper returns the listener).
func serverHandlerOf(t *testing.T, srv *httptest.Server) http.Handler {
	t.Helper()
	return srv.Config.Handler
}

// A refine whose per-class deadline expires must come back as 504 and the
// session must remain usable: the deadline killed one round, not the
// session.
func TestRefineDeadlineExpiredReturns504(t *testing.T) {
	srv, labels, _ := testServerWithConfig(t, Config{TrainTimeout: time.Nanosecond})
	sessionID := startJudgedSession(t, srv, labels, 0)

	var errResp errorResponse
	resp := postJSON(t, srv.URL+"/api/sessions/refine",
		RefineRequest{SessionID: sessionID, Scheme: "lrf-csvm", K: 5}, &errResp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", resp.StatusCode, errResp)
	}
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.ActiveSessions != 1 {
		t.Fatalf("expired refine evicted the session (active=%d)", status.ActiveSessions)
	}
}

// Saturating a class must shed with 503 + Retry-After while the in-flight
// request is unaffected, and the shed/admitted counters must show up in
// /api/status.
func TestOverloadShedsWith503AndRetryAfter(t *testing.T) {
	srv, _, _, s := testServerFull(t, Config{MaxInflightQuery: 1, QueueWait: 5 * time.Millisecond})
	h := serverHandlerOf(t, srv)

	// Occupy the class's only slot directly through the limiter — the
	// exact state a slow in-flight query would hold.
	release, err := s.limQuery.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rr := serveWithCtx(t, h, context.Background(), http.MethodGet, "/api/query?image=3&k=5", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rr.Code, rr.Body.String())
	}
	retry, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rr.Header().Get("Retry-After"))
	}

	// The slot frees; the same request now succeeds — in-flight work was
	// never disturbed by the shedding.
	release()
	rr = serveWithCtx(t, h, context.Background(), http.MethodGet, "/api/query?image=3&k=5", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status after release = %d (%s), want 200", rr.Code, rr.Body.String())
	}

	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	q := status.Admission.Query
	if q.Shed < 1 || q.Admitted < 1 || q.MaxInFlight != 1 || q.InFlight != 0 {
		t.Fatalf("admission status = %+v", q)
	}
}

// An oversized JSON body is rejected with 413 before any work runs.
func TestOversizedBodyRejected(t *testing.T) {
	srv, _ := testServer(t)
	// Syntactically valid JSON, so the decoder keeps reading until the
	// byte cap trips rather than failing on the first malformed byte.
	huge := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), maxJSONBody)...), `"}`...)
	for _, ep := range []string{"/api/sessions", "/api/sessions/judge", "/api/sessions/refine", "/api/sessions/commit"} {
		resp, err := http.Post(srv.URL+ep, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", ep, resp.StatusCode)
		}
	}
}

// Mixed query/refine/ingest load against tight per-class limits, run with
// -race: every request ends in an accounted state (2xx, 4xx or shed), the
// in-flight gauges drain to zero, and admitted+shed covers every attempt
// on the limited classes.
func TestLimiterStressUnderMixedLoad(t *testing.T) {
	srv, labels, _ := testServerWithConfig(t, Config{
		MaxInflightQuery:  2,
		MaxInflightTrain:  1,
		MaxInflightIngest: 1,
		QueueWait:         2 * time.Millisecond,
	})
	h := serverHandlerOf(t, srv)
	sessionID := startJudgedSession(t, srv, labels, 0)

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var rr *httptest.ResponseRecorder
				switch (w + i) % 3 {
				case 0:
					rr = serveWithCtx(t, h, context.Background(), http.MethodGet,
						fmt.Sprintf("/api/query?image=%d&k=5", (w*perWorker+i)%36), nil)
				case 1:
					rr = serveWithCtx(t, h, context.Background(), http.MethodPost, "/api/sessions/refine",
						RefineRequest{SessionID: sessionID, Scheme: "euclidean", K: 5})
				default:
					rr = serveWithCtx(t, h, context.Background(), http.MethodPost, "/api/images",
						AddImagesRequest{Images: [][]float64{{0.1 * float64(w), 0.2 * float64(i)}}})
				}
				switch rr.Code {
				case http.StatusOK, http.StatusServiceUnavailable:
				default:
					unexpected.Add(1)
					t.Errorf("unexpected status %d: %s", rr.Code, rr.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()
	if unexpected.Load() > 0 {
		t.FailNow()
	}

	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	for name, cls := range map[string]AdmissionClassStatus{
		"query": status.Admission.Query, "train": status.Admission.Train, "ingest": status.Admission.Ingest,
	} {
		if cls.InFlight != 0 || cls.Queued != 0 {
			t.Errorf("%s gauges not drained: %+v", name, cls)
		}
	}
}
