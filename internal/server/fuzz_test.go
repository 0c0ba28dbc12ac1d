package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// FuzzHTTP sends a fuzzed method, query string and body to each of the seven
// JSON routes of a small server: no answer is a 5xx or a 200 without a body
// (a handler that panics answers neither: the client's error fails the run),
// and a request answered 4xx changed nothing GET /api/status shows — apart
// from its admission counters, which count requests whatever they were
// answered. The seeds under testdata/fuzz/FuzzHTTP are the HTTP bugs of PRs
// 21-25 but the body beyond every limit: a megabyte of seed stalls the
// mutator's minimizer for its whole budget, and TestOversizedBodyRejected
// pins that answer.
func FuzzHTTP(f *testing.F) {
	routes := []string{"/api/status", "/api/query", "/api/images", "/api/sessions", "/api/sessions/judge", "/api/sessions/refine", "/api/sessions/commit"}
	srv, _, _, _ := testServerFull(f, Config{})
	postJSON(f, srv.URL+"/api/sessions", StartSessionRequest{Query: 0}, nil) // session 1, which the seeds name
	status := func(t *testing.T) (s StatusResponse) {
		getJSON(t, srv.URL+"/api/status", &s)
		s.Admission = AdmissionStatus{}
		return s
	}
	f.Fuzz(func(t *testing.T, method string, route uint8, query string, body []byte) {
		req, err := http.NewRequest(method, srv.URL+routes[int(route)%len(routes)]+"?"+query, bytes.NewReader(body))
		if err != nil {
			t.Skip("not a request")
		}
		before := status(t)
		resp, err := http.DefaultClient.Do(req)
		if err != nil && len(body) > 1<<16 {
			t.Skip("the server may hang up on a body it refuses before the client has sent it")
		} else if err != nil {
			t.Fatalf("%s %s %q: %v", method, req.URL, body, err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		switch {
		case resp.StatusCode >= 500, resp.StatusCode == http.StatusOK && len(answer) == 0 && method != http.MethodHead:
			t.Errorf("%s %s %q: %d with a body of %d bytes", method, req.URL, body, resp.StatusCode, len(answer))
		case resp.StatusCode >= 400 && status(t) != before:
			t.Errorf("%s %s %q: answered %d and changed the status from %+v to %+v", method, req.URL, body, resp.StatusCode, before, status(t))
		}
	})
}
