package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestQueryBatchEndpoint verifies the batched probe endpoint returns one
// bounded result list per probe, identical to per-probe /api/query calls.
func TestQueryBatchEndpoint(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{})
	var batch QueryBatchResponse
	resp := postJSON(t, srv.URL+"/api/query/batch", QueryBatchRequest{Images: []int{0, 13, 31}, K: 6}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if batch.K != 6 || len(batch.Queries) != 3 {
		t.Fatalf("k=%d with %d query lists, want 6 and 3", batch.K, len(batch.Queries))
	}
	for i, want := range []int{0, 13, 31} {
		got := batch.Queries[i]
		if got.Query != want {
			t.Fatalf("list %d is for query %d, want %d", i, got.Query, want)
		}
		if len(got.Results) != 6 {
			t.Fatalf("query %d returned %d results, want 6", want, len(got.Results))
		}
		var single QueryResponse
		getJSON(t, srv.URL+"/api/query?image="+strconv.Itoa(want)+"&k=6", &single)
		for j := range single.Results {
			if single.Results[j] != got.Results[j] {
				t.Fatalf("query %d result %d differs between batch (%+v) and single (%+v)", want, j, got.Results[j], single.Results[j])
			}
		}
	}
}

// TestQueryBatchValidation covers the rejection paths of the batch endpoint.
func TestQueryBatchValidation(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{})
	cases := []struct {
		name string
		req  QueryBatchRequest
	}{
		{"empty batch", QueryBatchRequest{}},
		{"oversized batch", QueryBatchRequest{Images: make([]int, maxBatchQueries+1)}},
		{"negative k", QueryBatchRequest{Images: []int{0}, K: -1}},
		{"out-of-range probe", QueryBatchRequest{Images: []int{0, 999}}},
	}
	for _, c := range cases {
		if resp := postJSON(t, srv.URL+"/api/query/batch", c.req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	if resp := getJSON(t, srv.URL+"/api/query/batch", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on batch endpoint: status %d, want 405", resp.StatusCode)
	}
}

// TestQueryBatchDuplicateProbes pins the duplicate-index semantics: repeated
// probes are legal and every repetition gets the same full result list.
func TestQueryBatchDuplicateProbes(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{})
	var batch QueryBatchResponse
	resp := postJSON(t, srv.URL+"/api/query/batch", QueryBatchRequest{Images: []int{7, 7, 3, 7}, K: 5}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(batch.Queries) != 4 {
		t.Fatalf("%d query lists, want 4 (one per probe, duplicates included)", len(batch.Queries))
	}
	for _, i := range []int{1, 3} {
		if batch.Queries[i].Query != 7 || len(batch.Queries[i].Results) != 5 {
			t.Fatalf("duplicate probe list %d = %+v", i, batch.Queries[i])
		}
		for j := range batch.Queries[0].Results {
			if batch.Queries[i].Results[j] != batch.Queries[0].Results[j] {
				t.Fatalf("duplicate probes diverge at list %d result %d: %+v vs %+v",
					i, j, batch.Queries[i].Results[j], batch.Queries[0].Results[j])
			}
		}
	}
}

// TestQueryBatchZeroKSelectsDefault pins the k=0 clamp: the server never
// forwards k=0 to the engine, it resolves to the configured default, so a
// zero-k batch cannot come back with silently empty lists.
func TestQueryBatchZeroKSelectsDefault(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{DefaultK: 4})
	var batch QueryBatchResponse
	resp := postJSON(t, srv.URL+"/api/query/batch", QueryBatchRequest{Images: []int{2, 9}, K: 0}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if batch.K != 4 {
		t.Fatalf("k = %d, want the default 4", batch.K)
	}
	for i, q := range batch.Queries {
		if len(q.Results) != 4 {
			t.Fatalf("list %d has %d results, want 4", i, len(q.Results))
		}
	}
}

// partialBatchBody decodes an error response body and fails the test if it
// smuggled any per-probe results alongside the error — the whole-batch
// failure contract.
func partialBatchBody(t *testing.T, body []byte) errorResponse {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if _, leaked := raw["queries"]; leaked {
		t.Fatalf("failed batch returned partial results: %s", body)
	}
	var errResp errorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Error == "" {
		t.Fatalf("failed batch carries no error message: %s", body)
	}
	return errResp
}

// TestQueryBatchDeadlineFailsWholeBatch verifies an expired deadline
// mid-batch surfaces as one 504 for the whole batch — never a 200 with the
// probes that happened to finish.
func TestQueryBatchDeadlineFailsWholeBatch(t *testing.T) {
	srv, _, _ := testServerWithConfig(t, Config{QueryTimeout: time.Nanosecond})
	h := serverHandlerOf(t, srv)
	rr := serveWithCtx(t, h, context.Background(), http.MethodPost, "/api/query/batch",
		QueryBatchRequest{Images: []int{0, 5, 9}, K: 5})
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", rr.Code, rr.Body.String())
	}
	partialBatchBody(t, rr.Body.Bytes())
}

// TestQueryKCapped verifies result lists are capped at the configured MaxK
// and default to DefaultK, on both the single and the batch query paths and
// on refinement.
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
	var batch QueryBatchResponse
	postJSON(t, srv.URL+"/api/query/batch", QueryBatchRequest{Images: []int{2}, K: 10 * n}, &batch)
	if batch.K != 7 || len(batch.Queries[0].Results) != 7 {
		t.Fatalf("batch capped: k=%d with %d results, want 7", batch.K, len(batch.Queries[0].Results))
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
	if status.Shards != engine.NumShards() || status.Shards == 0 {
		t.Fatalf("status shards = %d, engine has %d", status.Shards, engine.NumShards())
	}
}

// TestAddImagesCapped verifies ingestion batches beyond the limit are
// rejected while batches at the limit pass.
func TestAddImagesCapped(t *testing.T) {
	srv, _, engine := testServerWithConfig(t, Config{})
	batch := make([][]float64, maxIngestImages+1)
	for i := range batch {
		batch[i] = make([]float64, engine.Dim())
	}
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: batch}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized ingest batch: status %d, want 400", resp.StatusCode)
	}
	var ok AddImagesResponse
	if resp := postJSON(t, srv.URL+"/api/images", AddImagesRequest{Images: batch[:maxIngestImages]}, &ok); resp.StatusCode != http.StatusOK || ok.Added != maxIngestImages {
		t.Fatalf("at-limit ingest batch: status %d, added %d", resp.StatusCode, ok.Added)
	}
}
