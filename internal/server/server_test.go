package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

func TestStatusEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var status StatusResponse
	resp := getJSON(t, srv.URL+"/api/status", &status)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	if status.Images != 36 || status.LogSessions != 15 {
		t.Errorf("status = %+v", status)
	}
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

func TestQueryEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var q QueryResponse
	resp := getJSON(t, srv.URL+"/api/query?image=3&k=5", &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	if len(q.Results) != 5 || q.Results[0].Image != 3 {
		t.Errorf("query response = %+v", q)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := testServer(t)
	if resp := getJSON(t, srv.URL+"/api/query?image=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad image param: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/query?image=999", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range image: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/query?image=1&k=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k: status %d", resp.StatusCode)
	}
}

// TestResultLengthRule holds every ranking endpoint to the one rule for k:
// omitted or 0 selects the default, a negative k is a 400, and anything above
// the ceiling is capped.
func TestResultLengthRule(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{DefaultK: 4, MaxK: 6})
	var start StartSessionResponse
	postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: 1}, &start)
	judge := JudgeRequest{SessionID: start.SessionID}
	for _, img := range []int{2, 30} {
		judge.Judgments = append(judge.Judgments, struct {
			Image    int  `json:"image"`
			Relevant bool `json:"relevant"`
		}{Image: img, Relevant: img == 2})
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", judge, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("judge: status %d", resp.StatusCode)
	}

	// Each endpoint answers a status and a result list of some length; an
	// empty k leaves the field out of the request.
	type answer struct{ status, results int }
	endpoints := map[string]func(k string) answer{
		"GET /api/query": func(k string) answer {
			url := srv.URL + "/api/query?image=1"
			if k != "" {
				url += "&k=" + k
			}
			var out QueryResponse
			resp := getJSON(t, url, &out)
			return answer{resp.StatusCode, len(out.Results)}
		},
		"POST /api/sessions/refine": func(k string) answer {
			body := map[string]any{"session_id": start.SessionID, "scheme": "rf-svm"}
			if k != "" {
				body["k"], _ = strconv.Atoi(k)
			}
			var out RefineResponse
			resp := postJSON(t, srv.URL+"/api/sessions/refine", body, &out)
			return answer{resp.StatusCode, len(out.Results)}
		},
	}
	cases := []struct {
		k    string
		want answer
	}{
		{"", answer{http.StatusOK, 4}},
		{"0", answer{http.StatusOK, 4}},
		{"3", answer{http.StatusOK, 3}},
		{"6", answer{http.StatusOK, 6}},
		{"7", answer{http.StatusOK, 6}},
		{"-1", answer{status: http.StatusBadRequest}},
		{"-5", answer{status: http.StatusBadRequest}},
	}
	for name, ask := range endpoints {
		for _, c := range cases {
			if got := ask(c.k); got != c.want {
				t.Errorf("%s with k=%q answered %+v, want %+v", name, c.k, got, c.want)
			}
		}
	}
}

func TestFullFeedbackFlow(t *testing.T) {
	srv, labels := testServer(t)

	var start StartSessionResponse
	resp := postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: 1}, &start)
	if resp.StatusCode != http.StatusOK || start.SessionID == 0 {
		t.Fatalf("start session: %d %+v", resp.StatusCode, start)
	}

	var q QueryResponse
	getJSON(t, srv.URL+"/api/query?image=1&k=10", &q)
	judge := JudgeRequest{SessionID: start.SessionID}
	for _, r := range q.Results {
		judge.Judgments = append(judge.Judgments, struct {
			Image    int  `json:"image"`
			Relevant bool `json:"relevant"`
		}{Image: r.Image, Relevant: labels[r.Image] == labels[1]})
	}
	var judged JudgeResponse
	resp = postJSON(t, srv.URL+"/api/sessions/judge", judge, &judged)
	if resp.StatusCode != http.StatusOK || judged.Judgments != 10 {
		t.Fatalf("judge: %d %+v", resp.StatusCode, judged)
	}

	for _, scheme := range []string{"euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"} {
		var refined RefineResponse
		resp = postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: start.SessionID, Scheme: scheme, K: 8}, &refined)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refine %s: status %d", scheme, resp.StatusCode)
		}
		if len(refined.Results) != 8 {
			t.Errorf("refine %s: %d results", scheme, len(refined.Results))
		}
	}

	var committed CommitResponse
	resp = postJSON(t, srv.URL+"/api/sessions/commit", CommitRequest{SessionID: start.SessionID}, &committed)
	if resp.StatusCode != http.StatusOK || committed.LogSessions != 16 {
		t.Fatalf("commit: %d %+v", resp.StatusCode, committed)
	}

	// The session is gone after commit.
	resp = postJSON(t, srv.URL+"/api/sessions/commit", CommitRequest{SessionID: start.SessionID}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second commit: status %d", resp.StatusCode)
	}
}

// TestJudgeBatchIsAllOrNothing pins the batch contract of
// POST /api/sessions/judge: a batch holding one out-of-range image answers
// 400 and records none of its judgments, so what a client drops on a 400
// can never reach the long-term log through a later commit.
func TestJudgeBatchIsAllOrNothing(t *testing.T) {
	srv, _ := testServer(t)
	var start StartSessionResponse
	postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: 1}, &start)

	type judgment = struct {
		Image    int  `json:"image"`
		Relevant bool `json:"relevant"`
	}
	count := func() int {
		t.Helper()
		var judged JudgeResponse
		if resp := postJSON(t, srv.URL+"/api/sessions/judge", JudgeRequest{SessionID: start.SessionID}, &judged); resp.StatusCode != http.StatusOK {
			t.Fatalf("empty batch: status %d", resp.StatusCode)
		}
		return judged.Judgments
	}
	var judged JudgeResponse
	ok := JudgeRequest{SessionID: start.SessionID, Judgments: []judgment{{Image: 0, Relevant: true}}}
	if resp := postJSON(t, srv.URL+"/api/sessions/judge", ok, &judged); resp.StatusCode != http.StatusOK || judged.Judgments != 1 {
		t.Fatalf("valid batch: %d %+v", resp.StatusCode, judged)
	}
	for _, bad := range []int{999999, -1} {
		batch := JudgeRequest{SessionID: start.SessionID, Judgments: []judgment{
			{Image: 1, Relevant: true}, {Image: 2, Relevant: false}, {Image: bad, Relevant: true},
		}}
		if resp := postJSON(t, srv.URL+"/api/sessions/judge", batch, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch with image %d: status %d, want 400", bad, resp.StatusCode)
		}
		if got := count(); got != 1 {
			t.Fatalf("after the rejected batch with image %d the session holds %d judgments, want 1", bad, got)
		}
	}
}

func TestRefineUnknownSessionAndScheme(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: 999, Scheme: "rf-svm"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d", resp.StatusCode)
	}
	var start StartSessionResponse
	postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: 0}, &start)
	resp = postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: start.SessionID, Scheme: "bogus"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scheme: status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	resp := getJSON(t, srv.URL+"/api/sessions/judge", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on judge: status %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/api/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST on status: status %d", resp.StatusCode)
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

// TestQueryKCapped verifies result lists are capped at the configured MaxK
// and default to DefaultK, on the query path and on refinement.
func TestQueryKCapped(t *testing.T) {
	srv, _, engine := testServerWithConfig(t, Config{DefaultK: 4, MaxK: 7})
	n := engine.NumImages()

	// Omitted k selects the default.
	var q QueryResponse
	getJSON(t, srv.URL+"/api/query?image=1", &q)
	if q.K != 4 || len(q.Results) != 4 {
		t.Fatalf("default: k=%d with %d results, want 4", q.K, len(q.Results))
	}
	// A request beyond MaxK is capped, never the full collection.
	getJSON(t, srv.URL+"/api/query?image=1&k="+strconv.Itoa(10*n), &q)
	if q.K != 7 || len(q.Results) != 7 {
		t.Fatalf("capped: k=%d with %d results, want 7", q.K, len(q.Results))
	}

	// Refinement follows the same default and ceiling.
	var start StartSessionResponse
	postJSON(t, srv.URL+"/api/sessions", StartSessionRequest{Query: 1}, &start)
	judge := JudgeRequest{SessionID: start.SessionID}
	for img := 0; img < 6; img++ {
		judge.Judgments = append(judge.Judgments, struct {
			Image    int  `json:"image"`
			Relevant bool `json:"relevant"`
		}{Image: img, Relevant: img < 3})
	}
	postJSON(t, srv.URL+"/api/sessions/judge", judge, nil)
	var refined RefineResponse
	postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: start.SessionID, Scheme: "rf-svm"}, &refined)
	if len(refined.Results) != 4 {
		t.Fatalf("refine default: %d results, want 4", len(refined.Results))
	}
	postJSON(t, srv.URL+"/api/sessions/refine", RefineRequest{SessionID: start.SessionID, Scheme: "rf-svm", K: 10 * n}, &refined)
	if len(refined.Results) != 7 {
		t.Fatalf("refine capped: %d results, want 7", len(refined.Results))
	}
}

// TestStatusReportsShards verifies /api/status exposes the shard count of
// the current collection epoch.
func TestStatusReportsShards(t *testing.T) {
	srv, _, engine := testServerWithConfig(t, Config{})
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.Shards != engine.Collection().Shards || status.Shards == 0 {
		t.Fatalf("status shards = %d, engine has %d", status.Shards, engine.Collection().Shards)
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
