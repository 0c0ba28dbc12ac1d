package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/server"
)

// Request classes: the keys of every latency table.
const (
	classQuery   = "query"
	classSession = "session"
	classJudge   = "judge"
	classRefine  = "refine"
	classCommit  = "commit"
	classIngest  = "ingest"
)

// resultK is the page length of every ranking request: the paper's 20.
const resultK = 20

// oracle is the judging ground truth: the category of every image, extended
// as the client ingests. Index i is known iff i < len(labels).
type oracle struct {
	labels []int
}

func newOracle(labels []int) *oracle {
	return &oracle{labels: append([]int(nil), labels...)}
}

func (o *oracle) size() int { return len(o.labels) }

func (o *oracle) category(image int) int { return o.labels[image] }

// extend registers the categories of images about to be ingested. Bursts are
// sequential, so the indices the server will assign are exactly the next
// len(cats) ones.
func (o *oracle) extend(cats []int) (first int) {
	first = len(o.labels)
	o.labels = append(o.labels, cats...)
	return first
}

// client is the closed-loop user on its one keep-alive connection: it sends
// its next request only after the previous reply arrived.
type client struct {
	http    *http.Client
	baseURL string
	oracle  *oracle
	tally   *tally
	// measured is false during warm-up: requests count as attempted and can
	// fail, but leave no latency sample.
	measured bool
	// checks counts the response sanity checks that ran, so a report can
	// show the correctness checks were not vacuous.
	checks int
	// firstFailure keeps the first failed request for the report.
	firstFailure string
}

func newClient(baseURL string, o *oracle) *client {
	// One connection: the transport is private to the client and may hold
	// exactly one idle connection to the server.
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{
		http:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		baseURL: baseURL,
		oracle:  o,
		tally:   newTally(),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request, decodes a 2xx JSON body into out, applies check to
// it and accounts the outcome under class. It reports whether the request
// succeeded; a failed one has already been recorded.
func (c *client) do(class, method, path string, body, out interface{}, check func() error) bool {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(fmt.Sprintf("bench: marshal %s body: %v", class, err)) // plain structs: a bug, not an input
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.baseURL+path, rd)
	if err != nil {
		panic(fmt.Sprintf("bench: build %s request: %v", class, err))
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6

	switch {
	case err != nil:
		err = fmt.Errorf("transport: %w", err)
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		if out != nil {
			err = json.Unmarshal(raw, out)
		}
		if err == nil && check != nil {
			c.checks++
			err = check()
		}
	}
	if err != nil && c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf("%s %s: %v", method, path, err)
	}
	c.tally.record(class, ms, err == nil, c.measured)
	return err == nil
}

// checkRanking is the sanity check of every ranking response: exactly
// min(k, images) results, indices in range and distinct, strictly ordered by
// (score descending, index ascending).
func checkRanking(results []server.ResultJSON, k, images int) error {
	want := k
	if images < want {
		want = images
	}
	if len(results) != want {
		return fmt.Errorf("ranking has %d results, want %d", len(results), want)
	}
	seen := make(map[int]bool, len(results))
	for i, r := range results {
		if r.Image < 0 || r.Image >= images {
			return fmt.Errorf("result %d: image %d outside [0,%d)", i, r.Image, images)
		}
		if seen[r.Image] {
			return fmt.Errorf("result %d: image %d appears twice", i, r.Image)
		}
		seen[r.Image] = true
		if i == 0 {
			continue
		}
		prev := results[i-1]
		if !(prev.Score > r.Score || (prev.Score == r.Score && prev.Image < r.Image)) {
			return fmt.Errorf("result %d (image %d, score %v) is not ordered after result %d (image %d, score %v)",
				i, r.Image, r.Score, i-1, prev.Image, prev.Score)
		}
	}
	return nil
}

// judgment is one entry of a judge request.
type judgment struct {
	Image    int  `json:"image"`
	Relevant bool `json:"relevant"`
}

type judgeRequest struct {
	SessionID int        `json:"session_id"`
	Judgments []judgment `json:"judgments"`
}

func (c *client) query(image int) ([]server.ResultJSON, bool) {
	var resp server.QueryResponse
	ok := c.do(classQuery, http.MethodGet, fmt.Sprintf("/api/query?image=%d&k=%d", image, resultK), nil, &resp,
		func() error { return checkRanking(resp.Results, resultK, c.oracle.size()) })
	return resp.Results, ok
}

func (c *client) startSession(queryImage int) (int, bool) {
	var resp server.StartSessionResponse
	ok := c.do(classSession, http.MethodPost, "/api/sessions", server.StartSessionRequest{Query: queryImage}, &resp, nil)
	return resp.SessionID, ok
}

// judge posts the ground-truth judgment of every listed image.
func (c *client) judge(session, queryCategory int, images []int) bool {
	req := judgeRequest{SessionID: session, Judgments: make([]judgment, len(images))}
	for i, img := range images {
		req.Judgments[i] = judgment{Image: img, Relevant: c.oracle.category(img) == queryCategory}
	}
	return c.do(classJudge, http.MethodPost, "/api/sessions/judge", req, nil, nil)
}

func (c *client) refine(session int, scheme string) ([]server.ResultJSON, bool) {
	var resp server.RefineResponse
	ok := c.do(classRefine, http.MethodPost, "/api/sessions/refine",
		server.RefineRequest{SessionID: session, Scheme: scheme, K: resultK}, &resp,
		func() error { return checkRanking(resp.Results, resultK, c.oracle.size()) })
	return resp.Results, ok
}

func (c *client) commit(session int) bool {
	return c.do(classCommit, http.MethodPost, "/api/sessions/commit", server.CommitRequest{SessionID: session}, nil, nil)
}

// ingest posts one burst; the server must place it exactly where the oracle
// registered it.
func (c *client) ingest(descriptors []linalg.Vector, cats []int) bool {
	first := c.oracle.extend(cats)
	req := server.AddImagesRequest{Images: make([][]float64, len(descriptors))}
	for i, d := range descriptors {
		req.Images[i] = d
	}
	var resp server.AddImagesResponse
	return c.do(classIngest, http.MethodPost, "/api/images", req, &resp, func() error {
		if resp.First != first || resp.Added != len(descriptors) {
			return fmt.Errorf("burst landed at %d (+%d), want %d (+%d)", resp.First, resp.Added, first, len(descriptors))
		}
		return nil
	})
}

func imagesOf(results []server.ResultJSON) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Image
	}
	return out
}

// precisionAt is the share of a page that belongs to the query's category.
func (c *client) precisionAt(results []server.ResultJSON, queryCategory int) float64 {
	if len(results) == 0 {
		return 0
	}
	hits := 0
	for _, r := range results {
		if c.oracle.category(r.Image) == queryCategory {
			hits++
		}
	}
	return float64(hits) / float64(len(results))
}
