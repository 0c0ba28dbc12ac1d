package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
)

// step is one depth (or one part of the deepest depth) of a replayed
// request: a call into a layer, with the step it hangs under.
type step struct {
	layer, name string
	parent      int // index of the parent step; -1 for the request's root
	fn          func() error
	counts      func() map[string]int64 // optional, read after fn
}

// replay runs the steps of one logical request, each as a span of one trace.
// Every step is its own execution on the same pinned state, so the order is
// free — and it rotates from request to request, because whichever step runs
// first pays for cold caches and whichever runs last inherits the garbage of
// the others; a fixed order would book those costs to one layer.
func (r *tracedRun) replay(class string, steps []step) (first int64, err error) {
	tid := r.t.newTrace()
	first = r.t.reserve(len(steps))
	for k := range steps {
		i := (k + r.rotation) % len(steps)
		st := steps[i]
		parent := int64(0)
		if st.parent >= 0 {
			parent = first + int64(st.parent)
		}
		var stepErr error
		r.t.fill(first+int64(i), tid, parent, class, st.layer, st.name, func() { stepErr = st.fn() })
		if stepErr != nil {
			return 0, fmt.Errorf("%s: %w", st.name, stepErr)
		}
		if st.counts != nil {
			r.t.count(first+int64(i), st.counts())
		}
	}
	r.rotation++
	return first, nil
}

// served decodes an in-process handler response.
func served(rec *httptest.ResponseRecorder, out interface{}) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// traceQuery replays one initial query at four depths.
func (r *tracedRun) traceQuery(q int) ([]server.ResultJSON, error) {
	target := fmt.Sprintf("/api/query?image=%d&k=%d", q, resultK)
	qctx := &core.QueryContext{Visual: r.visual, Query: q, Batch: r.batch, Ctx: r.ctx}
	var raw []byte
	var rec *httptest.ResponseRecorder
	var d2 []retrieval.Result
	var d3 []core.Ranked
	_, err := r.replay(classQuery, []step{
		{layer: layerTransport, name: "GET /api/query", parent: -1, fn: func() (err error) {
			raw, err = r.over(http.MethodGet, target, nil)
			return err
		}},
		{layer: layerHandler, name: "Handler.ServeHTTP /api/query", parent: 0, fn: func() error {
			rec = r.main.serve(http.MethodGet, target, nil)
			return nil
		}},
		{layer: layerRetrieval, name: "Engine.InitialQuery", parent: 1, fn: func() (err error) {
			d2, err = r.main.engine.InitialQuery(r.ctx, q, resultK)
			return err
		}},
		{layer: layerCore, name: "Euclidean.RankTop", parent: 2, fn: func() (err error) {
			d3, err = core.Euclidean{}.RankTop(qctx, resultK)
			return err
		}},
	})
	if err != nil {
		return nil, err
	}
	var d0, d1 server.QueryResponse
	if err := json.Unmarshal(raw, &d0); err != nil {
		return nil, err
	}
	if err := served(rec, &d1); err != nil {
		return nil, err
	}
	r.agree(fmt.Sprintf("query %d", q), d0.Results, d1.Results, fromResults(d2), fromRanked(d3))
	return d0.Results, checkRanking(d0.Results, resultK, len(r.visual))
}

// schemeSteps are the steps one depth below a ranking scheme, hanging under
// step parent: for LRF-CSVM unlabeled selection and coupled training (the
// final scan is what remains of the scheme's span), for LRF-2SVMs training
// and the scoring scan. Inputs a step needs from a sibling are computed once
// up front, untimed, so the steps stay independent of each other.
func (r *tracedRun) schemeSteps(parent int, kind retrieval.SchemeKind, qctx *core.QueryContext) ([]step, error) {
	switch kind {
	case retrieval.SchemeLRFCSVM:
		csvm := schemeOf(kind).(core.LRFCSVM)
		mods, labels, initial, err := csvm.TrainingProblem(qctx)
		if err != nil {
			return nil, err
		}
		var res *core.CoupledResult
		return []step{
			{layer: layerCore, name: "LRFCSVM.TrainingProblem", parent: parent, fn: func() error {
				_, _, _, err := csvm.TrainingProblem(qctx)
				return err
			}},
			{layer: layerCore, name: "TrainCoupled", parent: parent, fn: func() (err error) {
				res, err = core.TrainCoupled(mods, labels, initial, coupledConfig())
				return err
			}, counts: func() map[string]int64 {
				return map[string]int64{
					"retrainings":       int64(res.Retrainings),
					"solver_iterations": int64(res.SolverIterations),
					"label_flips":       int64(res.Flips),
					"labeled":           int64(len(labels)),
					"unlabeled":         int64(len(initial)),
				}
			}},
		}, nil
	case retrieval.SchemeLRF2SVMs:
		pre, err := core.LRF2SVMs{}.Pretrain(qctx)
		if err != nil {
			return nil, err
		}
		return []step{
			{layer: layerCore, name: "LRF2SVMs.Pretrain", parent: parent, fn: func() error {
				_, err := core.LRF2SVMs{}.Pretrain(qctx)
				return err
			}},
			{layer: layerCore, name: "Pretrained2SVMs.RankTopAppend", parent: parent, fn: func() error {
				_, err := pre.RankTopAppend(qctx, resultK, nil)
				return err
			}},
		}, nil
	}
	return nil, nil
}

// traceRefine replays one refinement at four depths plus the scheme's parts.
func (r *tracedRun) traceRefine(sid int, twin *retrieval.Session, q int, judged map[int]bool, kind retrieval.SchemeKind) ([]server.ResultJSON, error) {
	body, err := json.Marshal(server.RefineRequest{SessionID: sid, Scheme: string(kind), K: resultK})
	if err != nil {
		return nil, err
	}
	qctx := r.queryContext(q, judged)
	var raw []byte
	var rec *httptest.ResponseRecorder
	var d2 []retrieval.Result
	var d3 []core.Ranked
	steps := []step{
		{layer: layerTransport, name: "POST /api/sessions/refine", parent: -1, fn: func() (err error) {
			raw, err = r.over(http.MethodPost, "/api/sessions/refine", body)
			return err
		}},
		{layer: layerHandler, name: "Handler.ServeHTTP /api/sessions/refine", parent: 0, fn: func() error {
			rec = r.main.serve(http.MethodPost, "/api/sessions/refine", body)
			return nil
		}},
		{layer: layerRetrieval, name: "Session.Refine", parent: 1, fn: func() (err error) {
			d2, err = twin.Refine(r.ctx, kind, resultK)
			return err
		}},
		{layer: layerCore, name: "RankTop " + string(kind), parent: 2, fn: func() (err error) {
			d3, err = core.RankTop(schemeOf(kind), qctx, resultK)
			return err
		}},
	}
	parts, err := r.schemeSteps(3, kind, qctx)
	if err != nil {
		return nil, err
	}
	if _, err := r.replay(classRefine, append(steps, parts...)); err != nil {
		return nil, err
	}
	var d0, d1 server.RefineResponse
	if err := json.Unmarshal(raw, &d0); err != nil {
		return nil, err
	}
	if err := served(rec, &d1); err != nil {
		return nil, err
	}
	r.agree(fmt.Sprintf("refine %s query %d", kind, q), d0.Results, d1.Results, fromResults(d2), fromRanked(d3))
	if len(r.saved) < 8 {
		r.saved = append(r.saved, qctx)
	}
	return d0.Results, checkRanking(d0.Results, resultK, len(r.visual))
}

// tracedQueries and tracedWrites are how many initial queries and how many
// commit + ingest pairs a traced run replays whatever its length: they are
// cheap at every size, and the sub-millisecond classes need the samples.
// Refinements, which dominate the run time, follow the loop budget.
const (
	tracedQueries = 60
	tracedWrites  = 40
)

// readLoops runs the read side of the workload's feedback loop serially,
// replaying every query and refine at every depth. The first three loops
// also check the handler against the full-score oracle for all four schemes.
func (r *tracedRun) readLoops(queries []int) error {
	kind, err := retrieval.ParseScheme(r.w.Scheme)
	if err != nil {
		return err
	}
	oracleChecks, oracleFails := 0, []string{}
	for i, q := range queries {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		cat := r.data.Labels[q]
		page, err := r.traceQuery(q)
		if err != nil {
			return err
		}
		var started server.StartSessionResponse
		if err := r.main.call(http.MethodPost, "/api/sessions", server.StartSessionRequest{Query: q}, &started); err != nil {
			return err
		}
		twin, err := r.main.engine.StartSession(q)
		if err != nil {
			return err
		}
		judged := make(map[int]bool, 2*resultK)
		fresh := imagesOf(page)
		for round := 0; round < r.w.Rounds && len(fresh) > 0; round++ {
			req := judgeRequest{SessionID: started.SessionID}
			for _, img := range fresh {
				rel := r.data.Labels[img] == cat
				judged[img] = rel
				req.Judgments = append(req.Judgments, judgment{Image: img, Relevant: rel})
				if err := twin.Judge(img, rel); err != nil {
					return err
				}
			}
			if err := r.main.call(http.MethodPost, "/api/sessions/judge", req, nil); err != nil {
				return err
			}
			if i < 3 && round == 0 {
				fails, err := r.oracle(started.SessionID, q, judged)
				if err != nil {
					return err
				}
				oracleChecks += 4
				oracleFails = append(oracleFails, fails...)
			}
			results, err := r.traceRefine(started.SessionID, twin, q, judged, kind)
			if err != nil {
				return err
			}
			fresh = fresh[:0]
			for _, res := range results {
				if _, seen := judged[res.Image]; !seen {
					fresh = append(fresh, res.Image)
				}
			}
		}
	}
	if extra := tracedQueries - len(queries); extra > 0 {
		for _, q := range r.data.queries(r.rep.Env.Seed, 2, extra) {
			if _, err := r.traceQuery(q); err != nil {
				return err
			}
		}
	}
	r.rep.check("handler equals Rank+TopK oracle", oracleChecks > 0 && len(oracleFails) == 0,
		"%d handler rankings (4 schemes) compared bit for bit with Scheme.Rank + core.TopK, %d differed%s",
		oracleChecks, len(oracleFails), firstOf(oracleFails))
	return nil
}

// oracle compares the handler's top-k with Scheme.Rank + core.TopK on the
// same pinned state, for every scheme, bit for bit.
func (r *tracedRun) oracle(sid, q int, judged map[int]bool) ([]string, error) {
	var fails []string
	for _, kind := range []retrieval.SchemeKind{retrieval.SchemeEuclidean, retrieval.SchemeRFSVM, retrieval.SchemeLRF2SVMs, retrieval.SchemeLRFCSVM} {
		var got server.RefineResponse
		if err := r.main.call(http.MethodPost, "/api/sessions/refine", server.RefineRequest{SessionID: sid, Scheme: string(kind), K: resultK}, &got); err != nil {
			return nil, err
		}
		scores, err := schemeOf(kind).Rank(r.queryContext(q, judged))
		if err != nil {
			return nil, err
		}
		top := core.TopK(scores, resultK)
		want := make([]server.ResultJSON, len(top))
		for i, idx := range top {
			want[i] = server.ResultJSON{Image: idx, Score: scores[idx] * oracleScale}
		}
		if !sameRanking(got.Results, want) {
			fails = append(fails, fmt.Sprintf("%s, query %d", kind, q))
		}
	}
	return fails, nil
}

// oracleScale multiplies every expected oracle score. It is one; a test
// sets it to show that a wrong expectation makes the run fail.
var oracleScale = 1.0

// writeLoops replays commits and ingest bursts. The socket depth mutates the
// main stack, as the request would; the handler and engine depths mutate the
// scratch stack (a cloned log, its own journal under the workload's fsync
// policy), and the deepest depth appends to a raw journal and a raw log.
func (r *tracedRun) writeLoops(seed uint64) error {
	rng := streamRNG(seed, streamClient+2)
	bursts, _ := r.data.ingestBursts(seed, tracedWrites, ingestBurst)
	// A judged session on the scratch engine that outlives the commits, to
	// time what the first refine after each commit pays for new log columns.
	probeQuery := rng.Intn(len(r.data.Visual))
	probe, err := r.scratch.engine.StartSession(probeQuery)
	if err != nil {
		return err
	}
	for _, img := range r.data.page(rng, probeQuery) {
		if err := probe.Judge(img, r.data.Labels[img] == r.data.Labels[probeQuery]); err != nil {
			return err
		}
	}
	refine := func() (time.Duration, error) {
		var err error
		_, d := r.t.time(r.t.newTrace(), 0, "extend", layerRetrieval, "Session.Refine lrf-2svms around Commit", func() {
			_, err = probe.Refine(r.ctx, retrieval.SchemeLRF2SVMs, resultK)
		})
		return d, err
	}
	if _, err := refine(); err != nil {
		return err
	}
	var extends []float64
	for i := 0; i < tracedWrites; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		q := rng.Intn(len(r.data.Visual))
		if err := r.traceCommit(q, r.data.page(rng, q)); err != nil {
			return err
		}
		first, err := refine()
		if err != nil {
			return err
		}
		steady, err := refine()
		if err != nil {
			return err
		}
		extends = append(extends, math.Max(0, us(first-steady)))
		if err := r.traceIngest(bursts[i]); err != nil {
			return err
		}
		// The burst grew the collection: settle before the next commit.
		if _, err := refine(); err != nil {
			return err
		}
	}
	r.rep.Metrics["retrieval.log_columns_extend_us"] = median(extends)
	return nil
}

// traceCommit replays one session commit.
func (r *tracedRun) traceCommit(q int, page []int) error {
	cat := r.data.Labels[q]
	// Untimed set-up: the same judged session on every target.
	bodies := make([][]byte, 2)
	for i, s := range []*stack{r.main, r.scratch} {
		var started server.StartSessionResponse
		if err := s.call(http.MethodPost, "/api/sessions", server.StartSessionRequest{Query: q}, &started); err != nil {
			return err
		}
		req := judgeRequest{SessionID: started.SessionID}
		for _, img := range page {
			req.Judgments = append(req.Judgments, judgment{Image: img, Relevant: r.data.Labels[img] == cat})
		}
		if err := s.call(http.MethodPost, "/api/sessions/judge", req, nil); err != nil {
			return err
		}
		var err error
		if bodies[i], err = json.Marshal(server.CommitRequest{SessionID: started.SessionID}); err != nil {
			return err
		}
	}
	twin, err := r.scratch.engine.StartSession(q)
	if err != nil {
		return err
	}
	session := feedbacklog.Session{QueryImage: q, Judgments: make(map[int]feedbacklog.Judgment, len(page))}
	for _, img := range page {
		rel := r.data.Labels[img] == cat
		if err := twin.Judge(img, rel); err != nil {
			return err
		}
		session.Judgments[img] = judgmentOf(rel)
	}
	rawJournal := r.rawJournal
	before := rawJournal.Stats()
	_, err = r.replay(classCommit, []step{
		{layer: layerTransport, name: "POST /api/sessions/commit", parent: -1, fn: func() error {
			_, err := r.over(http.MethodPost, "/api/sessions/commit", bodies[0])
			return err
		}},
		{layer: layerHandler, name: "Handler.ServeHTTP /api/sessions/commit", parent: 0, fn: func() error {
			return served(r.scratch.serve(http.MethodPost, "/api/sessions/commit", bodies[1]), nil)
		}},
		{layer: layerRetrieval, name: "Session.Commit", parent: 1, fn: func() error { return twin.Commit(r.ctx) }},
		{layer: layerStorage, name: "Journal.AppendSession", parent: 2, fn: func() error { return rawJournal.AppendSession(session) },
			counts: func() map[string]int64 {
				after := rawJournal.Stats()
				return map[string]int64{
					"fsyncs":  after.Syncs - before.Syncs,
					"bytes":   after.Bytes - before.Bytes,
					"retries": after.AppendRetries - before.AppendRetries,
				}
			}},
		{layer: layerFeedbackLog, name: "Log.AddSession", parent: 2, fn: func() error {
			_, err := r.rawLog.AddSession(session)
			return err
		}},
	})
	return err
}

// traceIngest replays one ingest burst.
func (r *tracedRun) traceIngest(burst []linalg.Vector) error {
	req := server.AddImagesRequest{Images: make([][]float64, len(burst))}
	for i, d := range burst {
		req.Images[i] = d
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	rawJournal := r.rawJournal
	_, err = r.replay(classIngest, []step{
		{layer: layerTransport, name: "POST /api/images", parent: -1, fn: func() error {
			_, err := r.over(http.MethodPost, "/api/images", body)
			return err
		}},
		{layer: layerHandler, name: "Handler.ServeHTTP /api/images", parent: 0, fn: func() error {
			return served(r.scratch.serve(http.MethodPost, "/api/images", body), nil)
		}},
		{layer: layerRetrieval, name: "Engine.AddImages", parent: 1, fn: func() error {
			_, err := r.scratch.engine.AddImages(r.ctx, burst)
			return err
		}},
		{layer: layerStorage, name: "Journal.AppendImages", parent: 2, fn: func() error { return rawJournal.AppendImages(burst) }},
		{layer: layerCore, name: "CollectionBatch.Grow", parent: 2, fn: func() error {
			r.rawVisual = append(r.rawVisual, burst...)
			r.rawBatch = r.rawBatch.Grow(r.rawVisual)
			return nil
		}},
	})
	r.rawLog.GrowImages(len(burst))
	return err
}
