package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lrfcsvm/internal/metrics"
)

// scrapeMetrics fetches /metrics, checks the content type and validates the
// body as Prometheus text exposition before handing it back.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	return text
}

// sampleValue finds the single sample matching every given label pair and
// returns its value. Missing samples fail the test.
func sampleValue(t *testing.T, text, name string, labels ...string) float64 {
	t.Helper()
	v, ok := findSample(text, name, labels...)
	if !ok {
		t.Fatalf("no sample %s{%s} in exposition", name, strings.Join(labels, ","))
	}
	return v
}

func findSample(text, name string, labels ...string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		labelPart := ""
		if rest[0] == '{' {
			end := strings.Index(rest, "}")
			if end < 0 {
				continue
			}
			labelPart = rest[1:end]
			rest = rest[end+1:]
		}
		matched := true
		for _, l := range labels {
			if !strings.Contains(labelPart, l) {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}

// The exporter and /api/status read the same atomics, so the two surfaces
// must agree on every number they both report — after real traffic, not
// just at rest.
func TestMetricsAgreeWithStatus(t *testing.T) {
	srv, labels, _ := testServerWithConfig(t, Config{})

	// Drive some traffic: queries plus a full judged session with a
	// refinement and a commit.
	for i := 0; i < 5; i++ {
		resp := getJSON(t, srv.URL+fmt.Sprintf("/api/query?image=%d&k=5", i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	sessionID := startJudgedSession(t, srv, labels, 0)
	var refined RefineResponse
	if resp := postJSON(t, srv.URL+"/api/sessions/refine",
		RefineRequest{SessionID: sessionID, Scheme: "lrf-csvm", K: 5}, &refined); resp.StatusCode != http.StatusOK {
		t.Fatalf("refine: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/sessions/commit",
		CommitRequest{SessionID: sessionID}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: status %d", resp.StatusCode)
	}
	// One deliberate client error for the 4xx lane.
	if resp := getJSON(t, srv.URL+"/api/query?image=notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}

	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	text := scrapeMetrics(t, srv.URL)

	// Engine/session state must match field for field. The status snapshot
	// is taken first and nothing mutates the engine in between, so exact
	// equality is required, not approximate.
	for _, tc := range []struct {
		metric string
		want   float64
	}{
		{"cbir_engine_images", float64(status.Images)},
		{"cbir_engine_epoch", float64(status.Epoch)},
		{"cbir_engine_collection_shards", float64(status.Shards)},
		{"cbir_engine_log_sessions", float64(status.LogSessions)},
		{"cbir_server_active_sessions", float64(status.ActiveSessions)},
	} {
		if got := sampleValue(t, text, tc.metric); got != tc.want {
			t.Errorf("%s = %v, /api/status says %v", tc.metric, got, tc.want)
		}
	}

	// Admission counters, per class.
	for _, cl := range []struct {
		name string
		st   AdmissionClassStatus
	}{
		{"query", status.Admission.Query},
		{"train", status.Admission.Train},
		{"ingest", status.Admission.Ingest},
	} {
		label := `class="` + cl.name + `"`
		if got := sampleValue(t, text, "cbir_admission_admitted_total", label); got != float64(cl.st.Admitted) {
			t.Errorf("admitted[%s] = %v, status says %d", cl.name, got, cl.st.Admitted)
		}
		if got := sampleValue(t, text, "cbir_admission_shed_total", label); got != float64(cl.st.Shed) {
			t.Errorf("shed[%s] = %v, status says %d", cl.name, got, cl.st.Shed)
		}
		if got := sampleValue(t, text, "cbir_admission_max_in_flight", label); got != float64(cl.st.MaxInFlight) {
			t.Errorf("max_in_flight[%s] = %v, status says %d", cl.name, got, cl.st.MaxInFlight)
		}
	}
	if got := sampleValue(t, text, "cbir_kernel_backend_info", `backend="`+status.KernelBackend+`"`); got != 1 {
		t.Errorf("cbir_kernel_backend_info{backend=%q} = %v, want 1", status.KernelBackend, got)
	}

	// Request accounting: the query endpoint saw six 200s (five direct plus
	// the one startJudgedSession issues to collect judgments) and one 400,
	// and its 2xx latency histogram carries the same count.
	if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="query"`, `code="200"`); got != 6 {
		t.Errorf(`requests_total{endpoint="query",code="200"} = %v, want 6`, got)
	}
	if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="query"`, `code="400"`); got != 1 {
		t.Errorf(`requests_total{endpoint="query",code="400"} = %v, want 1`, got)
	}
	if got := sampleValue(t, text, "cbir_http_request_duration_seconds_count", `endpoint="query"`, `class="2xx"`); got != 6 {
		t.Errorf(`duration_count{endpoint="query",class="2xx"} = %v, want 6`, got)
	}
	if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="refine"`, `code="200"`); got != 1 {
		t.Errorf(`requests_total{endpoint="refine",code="200"} = %v, want 1`, got)
	}
	// Nothing is in flight while we scrape.
	if got := sampleValue(t, text, "cbir_http_inflight_requests", `endpoint="query"`); got != 0 {
		t.Errorf(`inflight{endpoint="query"} = %v, want 0`, got)
	}
}

// Every status code the bugfix sweep distinguishes must land in the request
// counter under its own label — here the guard's 503 after Server.Close.
func TestMetricsRecordShutdown503(t *testing.T) {
	srv, _, _, s := testServerFull(t, Config{})
	s.Close()
	resp, err := http.Get(srv.URL + "/api/query?image=0&k=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// /metrics stays scrapable after Close — that is the point of keeping
	// it outside the guard.
	text := scrapeMetrics(t, srv.URL)
	if got := sampleValue(t, text, "cbir_http_requests_total", `endpoint="query"`, `code="503"`); got != 1 {
		t.Errorf(`requests_total{endpoint="query",code="503"} = %v, want 1`, got)
	}
	if got := sampleValue(t, text, "cbir_http_request_duration_seconds_count", `endpoint="query"`, `class="5xx"`); got != 1 {
		t.Errorf(`duration_count{endpoint="query",class="5xx"} = %v, want 1`, got)
	}
}

// /metrics itself only answers GET.
func TestMetricsMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}
