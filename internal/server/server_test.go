package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

func testServer(t *testing.T) (*httptest.Server, []int) {
	t.Helper()
	srv, labels, _ := testServerWithConfig(t, Config{})
	return srv, labels
}

func testServerWithConfig(t *testing.T, cfg Config) (*httptest.Server, []int, *retrieval.Engine) {
	srv, labels, engine, _ := testServerFull(t, cfg)
	return srv, labels, engine
}

func testServerFull(t testing.TB, cfg Config) (*httptest.Server, []int, *retrieval.Engine, *Server) {
	t.Helper()
	visual, labels, log := testCollection(t)
	engine, err := retrieval.NewEngine(visual, log, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(engine, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, labels, engine, s
}

// testCollection is three clusters of twelve 2-D descriptors with their
// labels and a simulated log over them.
func testCollection(t testing.TB) ([]linalg.Vector, []int, *feedbacklog.Log) {
	t.Helper()
	rng := linalg.NewRNG(5)
	var visual []linalg.Vector
	var labels []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 12; i++ {
			visual = append(visual, linalg.Vector{float64(5*c) + rng.Normal(0, 0.7), rng.Normal(0, 0.7)})
			labels = append(labels, c)
		}
	}
	log, err := feedbacklog.Simulate(visual, labels, feedbacklog.SimulatorConfig{
		Sessions: 15, ReturnedPerSession: 8, NoiseRate: 0, ExplorationFraction: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return visual, labels, log
}

func getJSON(t testing.TB, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func postJSON(t testing.TB, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// startJudgedSession drives the HTTP flow up to a judged session and
// returns its id.
func startJudgedSession(t testing.TB, srv *httptest.Server, labels []int, query int) int {
	t.Helper()
	var start StartSessionResponse
	resp := postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: query}, &start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start session: %d", resp.StatusCode)
	}
	var q QueryResponse
	getJSON(t, srv.URL+fmt.Sprintf("/api/query?image=%d&k=8", query), &q)
	judge := JudgeRequest{SessionID: start.SessionID}
	for _, r := range q.Results {
		judge.Judgments = append(judge.Judgments, struct {
			Image    int  `json:"image"`
			Relevant bool `json:"relevant"`
		}{Image: r.Image, Relevant: labels[r.Image] == labels[query]})
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("judge: %d", resp.StatusCode)
	}
	return start.SessionID
}

// TestStatusIsOneEpoch: /api/status read images, dim, shards and epoch with a
// load of the current epoch each, so a status answered while an ingestion
// published could pair one epoch's image count with the next one's sequence
// number and shard count. Fixed-size batches make the three a function of one
// another, which every response must satisfy whatever epoch it describes.
func TestStatusIsOneEpoch(t *testing.T) {
	_, _, engine, s := testServerFull(t, Config{})
	const batch, batches = 64, 2000 // 128,036 images: the shard count changes every 32nd epoch
	n0 := engine.NumImages()
	rows := make([]linalg.Vector, batch)
	for i := range rows {
		rows[i] = linalg.Vector{float64(i), 1}
	}
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for i := 0; i < batches; i++ {
			if _, err := engine.AddImages(context.Background(), rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	handler := s.Handler()
	for polling := true; polling; {
		select {
		case <-ingested:
			polling = false // one more poll, of the final epoch
		default:
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/status", nil))
		var st StatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if want := n0 + int(st.Epoch-1)*batch; st.Images != want {
			t.Fatalf("status pairs %d images with epoch %d, which has %d", st.Images, st.Epoch, want)
		}
		if want := (st.Images + kernel.DefaultShardSize - 1) / kernel.DefaultShardSize; st.Shards != want {
			t.Fatalf("status pairs %d shards with %d images, which fill %d", st.Shards, st.Images, want)
		}
	}
}

// TestStatusReportsKernelBackend verifies /api/status always names the active
// compute backend, and that it matches the kernel package's report.
func TestStatusReportsKernelBackend(t *testing.T) {
	srv, _ := testServer(t)
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.KernelBackend == "" {
		t.Fatal("status omitted the kernel backend")
	}
	if status.KernelBackend != kernel.Backend() {
		t.Fatalf("status backend %q, kernel reports %q", status.KernelBackend, kernel.Backend())
	}
}

// TestUnknownBodyFieldRejected: a body naming a field its route does not
// have is a 400 that names the field on every POST route, not a request
// served as if the field were absent — "async": true asked for a 202 and a
// round token before asynchronous refinement went, and must not now be
// answered 200 with a ranking it did not ask for.
func TestUnknownBodyFieldRejected(t *testing.T) {
	srv, labels := testServer(t)
	session := startJudgedSession(t, srv, labels, 1)
	for _, c := range []struct{ path, body, field string }{
		{"/api/sessions", `{"query":1,"scheme":"rf-svm"}`, "scheme"},
		{"/api/sessions/judge", fmt.Sprintf(`{"session_id":%d,"judgments":[{"image":2,"relevant":true,"weight":2}]}`, session), "weight"},
		{"/api/sessions/refine", fmt.Sprintf(`{"session_id":%d,"scheme":"lrf-csvm","async":true}`, session), "async"},
		{"/api/sessions/commit", fmt.Sprintf(`{"session_id":%d,"force":true}`, session), "force"},
		{"/api/images", `{"images":[[0.5,0.5]],"labels":[1]}`, "labels"},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var got errorResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if want := fmt.Sprintf("unknown field %q", c.field); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, want) {
			t.Errorf("%s %s: status %d, error %q (%v), want 400 naming %s", c.path, c.body, resp.StatusCode, got.Error, err, want)
		}
	}
	// None of the five was half-served: the session is still there with its
	// eight judgments, and nothing was ingested or committed.
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	var judged JudgeResponse
	postJSON(t, srv.URL+"/api/sessions/judge", JudgeRequest{SessionID: session}, &judged)
	if status.Images != 36 || status.LogSessions != 15 || status.ActiveSessions != 1 || judged.Judgments != 8 {
		t.Errorf("after five refused requests: %+v, %d judgments", status, judged.Judgments)
	}
}

func TestMalformedBodies(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed start: status %d", resp.StatusCode)
	}
}

// TestAddImagesCapped verifies ingestion batches beyond the limit are
// rejected while batches at the limit pass.
func TestAddImagesCapped(t *testing.T) {
	srv, _, engine := testServerWithConfig(t, Config{})
	batch := make([][]float64, maxIngestImages+1)
	for i := range batch {
		batch[i] = make([]float64, engine.Collection().Dim)
	}
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: batch}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized ingest batch: status %d, want 400", resp.StatusCode)
	}
	var ok AddImagesResponse
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: batch[:maxIngestImages]}, &ok); resp.StatusCode != http.StatusOK || ok.Added != maxIngestImages {
		t.Fatalf("at-limit ingest batch: status %d, added %d", resp.StatusCode, ok.Added)
	}
}
