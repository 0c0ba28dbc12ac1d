package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lrfcsvm/internal/server"
)

type resultJSON = server.ResultJSON

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an unsorted slice = %v, want 5", got)
	}
}

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	s := summarize([]float64{3, 1, 2})
	if s.Count != 3 || s.P50 != 2 || s.Max != 3 || s.SupportedTail != 50 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestWarmupLoops(t *testing.T) {
	for _, tc := range []struct{ loops, want int }{{2, 1}, {20, 1}, {21, 2}, {100, 5}, {1800, 90}} {
		if got := warmupLoops(tc.loops); got != tc.want {
			t.Errorf("warmupLoops(%d) = %d, want %d", tc.loops, got, tc.want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	a := newTally()
	a.record(classQuery, 1.0, true, false) // warm-up: counted, no sample
	a.record(classQuery, 2.0, true, true)
	a.record(classRefine, 0.1, false, true) // failed fast: must not become a latency sample
	a.record(classCommit, 3.0, true, true)
	a.Slowdown = 1.25 // the machine now runs a quarter slower than the reference
	a.record(classQuery, 5.0, true, true)

	if a.Attempted != 5 || a.Failed != 1 || a.MeasuredOK != 3 {
		t.Fatalf("tally = %+v", a)
	}
	if got := a.LatencyMS[classQuery]; len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("query samples = %v, want [2 5] (warm-up excluded)", got)
	}
	if got := a.ScaledMS[classQuery]; len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("query samples at reference speed = %v, want [2 4]", got)
	}
	if len(a.LatencyMS[classRefine]) != 0 || len(a.ScaledMS[classRefine]) != 0 {
		t.Errorf("a failed request left a latency sample: %v", a.LatencyMS[classRefine])
	}
	if a.okCount(classCommit) != 1 || a.okCount(classQuery) != 3 {
		t.Errorf("per-class acknowledgements = %v", a.OKByClass)
	}
	if got := a.failedShare(); got != 0.2 {
		t.Errorf("failedShare = %v, want 0.2", got)
	}
	if newTally().failedShare() != 0 {
		t.Error("failedShare of nothing attempted is not 0")
	}
}

// TestSteadyStatistics: the listed latencies and the rate are medians over
// consecutive parts of the run, so a disturbance that covers a minority of
// the parts does not move them.
func TestSteadyStatistics(t *testing.T) {
	if got := blockEdges(90); len(got) != steadyBlocks || got[0] != 10 || got[8] != 90 {
		t.Errorf("blockEdges(90) = %v", got)
	}
	if got := blockEdges(35); len(got) != 3 || got[2] != 35 {
		t.Errorf("blockEdges(35) = %v, want three parts", got)
	}
	if got := blockEdges(4); len(got) != 1 || got[0] != 4 {
		t.Errorf("blockEdges(4) = %v, want one part", got)
	}

	// 900 samples cycling 1..10 ms; a neighbour triples parts three and seven.
	samples := make([]float64, 900)
	for i := range samples {
		samples[i] = float64(i%10 + 1)
		if part := i / 100; part == 2 || part == 6 {
			samples[i] *= 3
		}
	}
	if got := steadyPercentile(samples, 50); got != 5 {
		t.Errorf("steady p50 = %v, want 5", got)
	}
	if got := steadyPercentile(samples, 90); got != 9 {
		t.Errorf("steady p90 = %v, want 9", got)
	}
	if whole := summarize(samples).P90; whole <= 9 {
		t.Errorf("the disturbance should move the whole-run p90 (%v): the test would prove nothing", whole)
	}
	if !math.IsNaN(steadyPercentile(nil, 50)) || !math.IsNaN(steadyRate(nil)) {
		t.Error("steady statistics of nothing are not NaN")
	}

	// 90 loops of 10 OK responses each, 0.1 s per loop; loops 20..39 take 0.3 s.
	var marks []progress
	var now float64
	for i := 0; i < 90; i++ {
		now += 0.1
		if i >= 20 && i < 40 {
			now += 0.2
		}
		marks = append(marks, progress{Seconds: now, OK: 10 * (i + 1)})
	}
	if got := steadyRate(marks); math.Abs(got-100) > 1e-9 {
		t.Errorf("steady rate = %v, want 100/s", got)
	}
}

// TestSlowdown: the yardstick reads 1 at the reference spin time and moves by
// the workload's weight of what the spin time moves by.
func TestSlowdown(t *testing.T) {
	if got := slowdownOf(spinReferenceMS, 0.6); got != 1 {
		t.Errorf("slowdown at the reference = %v", got)
	}
	if got := slowdownOf(1.5*spinReferenceMS, 0.6); math.Abs(got-1.3) > 1e-12 {
		t.Errorf("slowdown at one and a half times the reference spin = %v, want 1.3", got)
	}
	m := newSpeedometer(0.6)
	m.prime()
	if len(m.recent) != spinWindow || m.spent <= 0 {
		t.Fatalf("prime left %d spins, spent %v", len(m.recent), m.spent)
	}
	m.spent = 0
	m.catchUp(time.Second) // at least one spin, then until the budget is met
	if float64(m.spent) < spinBudget*float64(time.Second) {
		t.Errorf("catchUp spent %v of a budget of %v", m.spent, time.Duration(spinBudget*float64(time.Second)))
	}
	if s := m.slowdown(); !(s > 0.3 && s < 30) {
		t.Errorf("slowdown on this machine = %v: the spin or its reference is off by an order of magnitude", s)
	}
}

// TestClientCountsRefusalsAndBadAnswersAsFailed drives the real client
// against a server that sheds one request and answers another with a
// malformed ranking: both are failed, neither leaves a latency sample.
func TestClientCountsRefusalsAndBadAnswersAsFailed(t *testing.T) {
	mux := http.NewServeMux()
	calls := 0
	mux.HandleFunc("/api/query", func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		switch calls {
		case 1: // shed
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"overloaded"}`))
		case 2: // 200, but one result short and out of order
			w.Write([]byte(`{"query":0,"k":20,"results":[{"image":1,"score":-2},{"image":0,"score":-1}]}`))
		default: // a correct page over a 3-image collection
			w.Write([]byte(`{"query":0,"k":20,"results":[{"image":0,"score":0},{"image":2,"score":-1},{"image":1,"score":-1.5}]}`))
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newClient(srv.URL, newOracle([]int{0, 0, 1}))
	defer c.close()
	c.measured = true
	for i := 0; i < 3; i++ {
		c.query(0)
	}
	if c.tally.Attempted != 3 || c.tally.Failed != 2 || c.tally.okCount(classQuery) != 1 {
		t.Fatalf("tally = %+v, first failure %q", c.tally, c.firstFailure)
	}
	if got := len(c.tally.LatencyMS[classQuery]); got != 1 {
		t.Fatalf("%d latency samples, want 1: refused and malformed answers must leave none", got)
	}
	if c.checks != 2 {
		t.Errorf("%d sanity checks ran, want 2 (the 503 has no body to check)", c.checks)
	}
	if c.firstFailure == "" {
		t.Error("the first failure was not kept for the report")
	}
}

func TestCheckRanking(t *testing.T) {
	res := func(pairs ...float64) []resultJSON {
		out := make([]resultJSON, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, resultJSON{Image: int(pairs[i]), Score: pairs[i+1]})
		}
		return out
	}
	if err := checkRanking(res(0, 3, 1, 2, 2, 2), 3, 10); err != nil {
		t.Errorf("a tie broken by ascending index was rejected: %v", err)
	}
	for name, bad := range map[string][]resultJSON{
		"short":        res(0, 3, 1, 2),
		"duplicate":    res(0, 3, 0, 2, 1, 1),
		"out of range": res(0, 3, 10, 2, 1, 1),
		"score order":  res(0, 1, 1, 2, 2, 0),
		"tie order":    res(0, 3, 2, 2, 1, 2),
	} {
		if checkRanking(bad, 3, 10) == nil {
			t.Errorf("%s ranking was accepted", name)
		}
	}
	if err := checkRanking(res(0, 1, 1, 0), 20, 2); err != nil {
		t.Errorf("k beyond the collection must expect every image: %v", err)
	}
}

func TestSelfTimesAndParents(t *testing.T) {
	// One request replayed at three depths, the deepest split in two parts.
	spans := []span{
		{SpanID: 1, ParentID: 0, StartNS: 0, EndNS: 1000},    // socket
		{SpanID: 2, ParentID: 1, StartNS: 2000, EndNS: 2800}, // handler
		{SpanID: 3, ParentID: 2, StartNS: 3000, EndNS: 3500}, // engine
		{SpanID: 4, ParentID: 3, StartNS: 4000, EndNS: 4200}, // part a
		{SpanID: 5, ParentID: 3, StartNS: 5000, EndNS: 5400}, // part b: a + b outlast the engine span
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 200, 2: 300, 3: -100, 4: 200, 5: 400}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Self times telescope: below the socket they add up to the handler.
	var sum int64
	for id := int64(2); id <= 5; id++ {
		sum += self[id]
	}
	if sum != spans[1].duration() {
		t.Errorf("self times below the handler sum to %d, handler took %d", sum, spans[1].duration())
	}
}

func TestReplayLinksParentsWhateverTheOrder(t *testing.T) {
	r := &tracedRun{t: newTracer()}
	ran := []int{}
	steps := func() []step {
		mk := func(i, parent int) step {
			return step{layer: "l", name: "n", parent: parent, fn: func() error { ran = append(ran, i); return nil }}
		}
		return []step{mk(0, -1), mk(1, 0), mk(2, 1)}
	}
	for request := 0; request < 3; request++ {
		first, err := r.replay("class", steps())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s := r.t.spans[first-1+int64(i)]
			wantParent := int64(0)
			if i > 0 {
				wantParent = first + int64(i) - 1
			}
			if s.SpanID != first+int64(i) || s.ParentID != wantParent || s.TraceID != int64(request+1) {
				t.Errorf("request %d depth %d: span %+v, want id %d parent %d", request, i, s, first+int64(i), wantParent)
			}
		}
	}
	if want := []int{0, 1, 2, 1, 2, 0, 2, 0, 1}; !equalInts(ran, want) {
		t.Errorf("execution order %v, want the rotation %v", ran, want)
	}
}

func TestResidualShare(t *testing.T) {
	if got := residualShare(100, []float64{50, 30, 15}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("residualShare = %v, want 0.05", got)
	}
	if got := residualShare(100, []float64{80, 30}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("parts that overshoot count too: %v, want 0.10", got)
	}
	if !math.IsNaN(residualShare(0, []float64{1})) {
		t.Error("residual of an empty whole is not NaN")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 7, 9, 12, 15, 20], n=4) == [2.75, 6.0, 12.75]
	s := spreadOf([]float64{20, 1, 2, 15, 3, 4, 12, 5, 7, 9})
	if s.Q1 != 2.75 || s.Median != 6 || s.Q3 != 12.75 || s.Min != 1 || s.Max != 20 {
		t.Fatalf("spread = %+v", s)
	}
	if got := s.iqrShare(); math.Abs(got-10.0/6) > 1e-12 {
		t.Errorf("iqrShare = %v", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	s = spreadOf([]float64{1, 2, 3, 4, 5})
	if s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Fatalf("spread of five = %+v", s)
	}
}
