package server

import (
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

// fakeClock is a test clock the server's Config.now hook can point at. Each
// reading is a nanosecond past the last, so no two sessions are last used at
// the same instant and the least recently used one is always one session.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Nanosecond)
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
