package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// fakeClock is a test clock the server's Config.now hook can point at.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// lifecycleServer builds a server with a controllable clock and session
// limits, returning the raw *Server so tests can sweep and close directly.
func lifecycleServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	rng := linalg.NewRNG(17)
	var visual []linalg.Vector
	for i := 0; i < 20; i++ {
		visual = append(visual, linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)})
	}
	engine, err := retrieval.NewEngine(visual, feedbacklog.NewLog(len(visual)), retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	cfg.now = clock.Now
	s := NewWithConfig(engine, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv, clock
}

func startSession(t *testing.T, url string, query int) int {
	t.Helper()
	var start StartSessionResponse
	resp := postJSON(t, url+"/api/sessions", StartSessionRequest{Query: query}, &start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start session: status %d", resp.StatusCode)
	}
	return start.SessionID
}

func TestAddImagesEndpoint(t *testing.T) {
	_, srv, _ := lifecycleServer(t, Config{})
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)

	var added AddImagesResponse
	resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{
		Images: [][]float64{{0.5, -0.25}, {1.5, 2}},
	}, &added)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add images: status %d", resp.StatusCode)
	}
	if added.First != status.Images || added.Added != 2 || added.Images != status.Images+2 {
		t.Errorf("add images response = %+v (had %d images)", added, status.Images)
	}

	// The ingested images are immediately queryable.
	var q QueryResponse
	resp = getJSON(t, srv.URL+"/api/query?image=21&k=3", &q)
	if resp.StatusCode != http.StatusOK || q.Results[0].Image != 21 {
		t.Errorf("query of ingested image: status %d, response %+v", resp.StatusCode, q)
	}
	var after StatusResponse
	getJSON(t, srv.URL+"/api/status", &after)
	if after.Images != status.Images+2 || after.Dim != 2 {
		t.Errorf("status after ingestion = %+v", after)
	}
}

func TestAddImagesErrors(t *testing.T) {
	_, srv, _ := lifecycleServer(t, Config{})
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingestion: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: [][]float64{{1, 2, 3}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong dimensionality: status %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/api/images", "application/json", bytes.NewReader([]byte("{broken")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/images", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on images: status %d", resp.StatusCode)
	}
}

// countingJournal is a JournalSink that only counts what it is handed.
type countingJournal struct{ sessions, imageBatches int }

func (j *countingJournal) AppendSession(feedbacklog.Session) error { j.sessions++; return nil }
func (j *countingJournal) AppendImages([]linalg.Vector) error      { j.imageBatches++; return nil }

// failingJournal is a JournalSink whose appends fail while err is set.
type failingJournal struct{ err error }

func (j *failingJournal) AppendSession(feedbacklog.Session) error { return j.err }
func (j *failingJournal) AppendImages([]linalg.Vector) error      { return j.err }

// A journal that cannot write is the server's fault, not the client's: the
// commit and the ingestion answer 500 with the cause (README tells clients
// that a 4xx is permanent), /metrics counts them under code="500", nothing
// changed, and the same commit succeeds once the journal recovers.
func TestJournalFailureIsServerError(t *testing.T) {
	journal := &failingJournal{err: errors.New("no space left on device")}
	engine, err := retrieval.NewEngine([]linalg.Vector{{0, 0}, {1, 0}, {0, 1}, {1, 1}}, nil, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(engine, Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
		engine.Close()
	})

	id := startSession(t, srv.URL, 0)
	judge := JudgeRequest{SessionID: id}
	judge.Judgments = append(judge.Judgments, struct {
		Image    int  `json:"image"`
		Relevant bool `json:"relevant"`
	}{Image: 1, Relevant: true})
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("judge: status %d", resp.StatusCode)
	}
	commit, ingest := CommitRequest{SessionID: id}, AddImagesRequest{Images: [][]float64{{2, 2}}}
	for url, req := range map[string]interface{}{"/api/sessions/commit": commit, "/api/images": ingest} {
		var body errorResponse
		if resp := postJSON(t, srv.URL+url, req, &body); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "no space left on device") {
			t.Errorf("POST %s with a failing journal: status %d, body %q; want 500 naming the cause", url, resp.StatusCode, body.Error)
		}
	}
	if engine.NumImages() != 4 || engine.NumLogSessions() != 0 {
		t.Errorf("failed appends left %d images and %d log sessions, want 4 and 0", engine.NumImages(), engine.NumLogSessions())
	}
	text := scrapeMetrics(t, srv.URL)
	for _, endpoint := range []string{"commit", "images"} {
		if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="`+endpoint+`"`, `code="500"`); got != 1 {
			t.Errorf("cbir_http_requests_total{endpoint=%q,code=\"500\"} = %v, want 1", endpoint, got)
		}
	}

	journal.err = nil
	var committed CommitResponse
	if resp := postJSON(t, srv.URL+"/api/sessions/commit", commit, &committed); resp.StatusCode != http.StatusOK || committed.LogSessions != 1 {
		t.Errorf("retried commit: status %d, %d log sessions; want 200 and 1", resp.StatusCode, committed.LogSessions)
	}
	var added AddImagesResponse
	if resp := postJSON(t, srv.URL+"/api/images", ingest, &added); resp.StatusCode != http.StatusOK || added.Images != 5 {
		t.Errorf("retried ingestion: status %d, %d images; want 200 and 5", resp.StatusCode, added.Images)
	}
}

// A descriptor whose squared norm overflows is at distance NaN from itself
// and +Inf from everything else, which no JSON response can carry: ingestion
// must refuse it before the journal sees it, and should a non-finite score
// ever reach a response, the client gets a 500 with a body, not an empty 200.
func TestAddImagesRejectsNonFiniteDescriptor(t *testing.T) {
	journal := &countingJournal{}
	engine, err := retrieval.NewEngine([]linalg.Vector{{0, 0}, {1, 0}, {0, 1}, {1, 1}}, nil, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(engine, Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
		engine.Close()
	})

	resp, err := http.Post(srv.URL+"/api/images", "application/json", strings.NewReader(`{"images":[[1e200,1e200]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing descriptor: status %d, want 400", resp.StatusCode)
	}
	if engine.NumImages() != 4 || journal.imageBatches != 0 {
		t.Fatalf("rejected ingestion left %d images and %d journaled batches, want 4 and 0", engine.NumImages(), journal.imageBatches)
	}
	var q QueryResponse
	if resp := getJSON(t, srv.URL+"/api/query?image=0&k=10", &q); resp.StatusCode != http.StatusOK || len(q.Results) != 4 {
		t.Fatalf("query after the rejected ingestion: status %d, %d results", resp.StatusCode, len(q.Results))
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, QueryResponse{Results: []ResultJSON{{Image: 1, Score: math.Inf(-1)}}})
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Fatalf("unencodable payload: status %d, body %q (%v); want 500 with an error body", rec.Code, rec.Body.String(), err)
	}
	if got := statusCodeLabel(rec.Code); got != "500" {
		t.Fatalf("a 500 is counted under code=%q", got)
	}
}

func TestJudgeAndRefineAfterCommitReturnNotFound(t *testing.T) {
	_, srv, _ := lifecycleServer(t, Config{})
	id := startSession(t, srv.URL, 3)
	judge := JudgeRequest{SessionID: id}
	judge.Judgments = append(judge.Judgments, struct {
		Image    int  `json:"image"`
		Relevant bool `json:"relevant"`
	}{Image: 3, Relevant: true})
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("judge: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/commit", CommitRequest{SessionID: id}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: status %d", resp.StatusCode)
	}
	// The committed session is dropped from the table: every further
	// operation on it reports it gone.
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("judge after commit: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: id}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("refine after commit: status %d", resp.StatusCode)
	}
}

func TestRefineWithoutJudgmentsRejected(t *testing.T) {
	_, srv, _ := lifecycleServer(t, Config{})
	id := startSession(t, srv.URL, 0)
	resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: id, Scheme: "rf-svm"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("refine without judgments: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/commit", CommitRequest{SessionID: id}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("commit without judgments: status %d", resp.StatusCode)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	s, srv, clock := lifecycleServer(t, Config{SessionTTL: time.Minute})
	stale := startSession(t, srv.URL, 1)
	clock.Advance(30 * time.Second)
	fresh := startSession(t, srv.URL, 2)
	clock.Advance(45 * time.Second) // stale is now 75s idle, fresh 45s

	if evicted := s.Sweep(); evicted != 1 {
		t.Fatalf("swept %d sessions, want 1", evicted)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: stale}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session refine: status %d", resp.StatusCode)
	}
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.ActiveSessions != 1 {
		t.Errorf("active sessions = %d, want 1", status.ActiveSessions)
	}
	// Touching the fresh session keeps renewing its TTL.
	clock.Advance(40 * time.Second)
	judge := JudgeRequest{SessionID: fresh}
	judge.Judgments = append(judge.Judgments, struct {
		Image    int  `json:"image"`
		Relevant bool `json:"relevant"`
	}{Image: 2, Relevant: true})
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("fresh session judge: status %d", resp.StatusCode)
	}
	clock.Advance(50 * time.Second)
	if evicted := s.Sweep(); evicted != 0 {
		t.Errorf("swept %d sessions after touch, want 0", evicted)
	}
}

func TestMaxSessionsEvictsLRU(t *testing.T) {
	s, srv, clock := lifecycleServer(t, Config{MaxSessions: 2})
	a := startSession(t, srv.URL, 0)
	clock.Advance(time.Second)
	b := startSession(t, srv.URL, 1)
	clock.Advance(time.Second)
	// Touch a so b becomes the LRU entry.
	if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: a, Scheme: "euclidean"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("touch session a: status %d", resp.StatusCode)
	}
	clock.Advance(time.Second)
	c := startSession(t, srv.URL, 2)

	if got := s.numSessions(); got != 2 {
		t.Fatalf("live sessions = %d, want 2", got)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: b, Scheme: "euclidean"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("LRU session b survived: status %d", resp.StatusCode)
	}
	for _, id := range []int{a, c} {
		if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: id, Scheme: "euclidean"}, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("session %d: status %d", id, resp.StatusCode)
		}
	}
}

func TestClosedServerRejectsRequests(t *testing.T) {
	s, srv, _ := lifecycleServer(t, Config{})
	id := startSession(t, srv.URL, 0)
	s.Close()
	s.Close() // idempotent

	if resp := getJSON(t, srv.URL+"/api/status", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status after close: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/query?image=0", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query after close: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: id}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("refine after close: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: [][]float64{{1, 2}}}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after close: %d", resp.StatusCode)
	}
}

// TestConcurrentAPITraffic drives every endpoint concurrently — ingestion,
// queries and full feedback rounds, with the TTL sweep running against the
// session table meanwhile — to cover the server's table locking and the
// engine's epoch handoff under HTTP-shaped load (run with -race).
func TestConcurrentAPITraffic(t *testing.T) {
	s, srv, _ := lifecycleServer(t, Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if n := s.Sweep(); n != 0 { // the clock stands still: nothing is idle
				t.Errorf("sweep evicted %d live sessions", n)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var added AddImagesResponse
				if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{
					Images: [][]float64{{float64(g), float64(i)}},
				}, &added); resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				id := startSession(t, srv.URL, (g+i)%20)
				judge := JudgeRequest{SessionID: id}
				judge.Judgments = append(judge.Judgments, struct {
					Image    int  `json:"image"`
					Relevant bool `json:"relevant"`
				}{Image: (g + i) % 20, Relevant: true})
				if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
					t.Errorf("judge: status %d", resp.StatusCode)
					return
				}
				if resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: id, Scheme: "lrf-csvm", K: 5}, nil); resp.StatusCode != http.StatusOK {
					t.Errorf("refine: status %d", resp.StatusCode)
					return
				}
				if resp := postJSON(t, srv.URL+"/api/sessions/commit", CommitRequest{SessionID: id}, nil); resp.StatusCode != http.StatusOK {
					t.Errorf("commit: status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.Images != 20+15 || status.LogSessions != 12 || status.ActiveSessions != 0 {
		t.Errorf("final status = %+v", status)
	}

	// The server's own accounting survives the run: the scrape is valid
	// exposition (scrapeMetrics fails otherwise), every commit was counted,
	// and nothing was counted as a server error.
	text := scrapeMetrics(t, srv.URL)
	if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="commit"`, `code="200"`); got != 12 {
		t.Errorf("cbir_http_requests_total counts %v commits, want 12", got)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "cbir_http_requests_total{") && strings.Contains(line, `code="5`) {
			t.Errorf("request counted as a server error: %s", line)
		}
	}
}

// TestAddSessionZeroMaxSessionsDoesNotSpin guards the config-bypass case: a
// Server whose Config skipped withDefaults (MaxSessions 0 over an empty
// table) used to spin the eviction loop forever deleting a key that was
// never there.
func TestAddSessionZeroMaxSessionsDoesNotSpin(t *testing.T) {
	for _, max := range []int{0, -5} {
		s := &Server{
			cfg:      Config{MaxSessions: max},
			now:      time.Now,
			sessions: make(map[int]*sessionEntry),
			nextID:   1,
		}
		done := make(chan int, 1)
		go func() { done <- s.addSession(nil) }()
		select {
		case id := <-done:
			if id != 1 || s.numSessions() != 1 {
				t.Errorf("MaxSessions=%d: id=%d live=%d", max, id, s.numSessions())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("MaxSessions=%d: addSession never returned (eviction loop spinning)", max)
		}
	}
}

// TestStatusDurabilitySection: the durability counters are surfaced on
// /api/status when configured and omitted otherwise.
func TestStatusDurabilitySection(t *testing.T) {
	want := DurabilityStatus{
		Journal:           true,
		FsyncPolicy:       "interval",
		JournaledRecords:  7,
		JournaledSessions: 5,
		JournaledImages:   2,
		JournalBytes:      321,
		SyncFailures:      4,
		ReplayedSessions:  3,
		ReplayedImages:    1,
		ReplayTornBytes:   13,
		Snapshots:         2,
		LastSnapshotUnix:  1_000_000,
		LastSnapshotError: "disk full",
	}
	_, srv, _ := lifecycleServer(t, Config{Durability: func() DurabilityStatus { return want }})
	var status StatusResponse
	if resp := getJSON(t, srv.URL+"/api/status", &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if status.Durability == nil || *status.Durability != want {
		t.Errorf("durability section = %+v, want %+v", status.Durability, want)
	}

	_, plain, _ := lifecycleServer(t, Config{})
	var none StatusResponse
	getJSON(t, plain.URL+"/api/status", &none)
	if none.Durability != nil {
		t.Errorf("durability section present without a journal: %+v", none.Durability)
	}
}
