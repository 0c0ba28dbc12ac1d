package main

import (
	"math"
	"sort"
)

// The harness's own arithmetic: percentiles, warm-up exclusion, failure
// accounting and the self-time sums of the depth-replay spans. Everything a
// reported number passes through is here so it can be tested on its own.

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least q percent of the samples at or below it.
// An empty slice has no percentiles and yields NaN.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(q, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is ceil(q% of n), computed so that binary rounding of q/100
// (99.9% of 10,000 is 9990.000000000002 in floating point) cannot push the
// rank up by one.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n)/100 - 1e-9))
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}

// The listed latency and throughput metrics are medians over the whole run:
// the measured part is cut into steadyBlocks consecutive parts, the statistic
// is taken inside each, and the median of the parts is reported. On a shared
// host a neighbour that takes a core for a second or two moves one or two
// parts, not the reported value; a change to the program moves every part.
const (
	steadyBlocks    = 9
	minBlockSamples = 10 // shorter runs (the test miniatures) use fewer parts
)

// blockEdges cuts n chronological items into consecutive, near-equal parts
// and returns the end (exclusive) of each: steadyBlocks parts when each gets
// at least minBlockSamples items, fewer otherwise, never less than one.
func blockEdges(n int) []int {
	blocks := n / minBlockSamples
	if blocks > steadyBlocks {
		blocks = steadyBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	edges := make([]int, blocks)
	for b := range edges {
		edges[b] = (b + 1) * n / blocks
	}
	return edges
}

// steadyPercentile is the median over the run's parts of each part's
// nearest-rank percentile q; samples are in the order they were taken.
func steadyPercentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var perBlock []float64
	start := 0
	for _, end := range blockEdges(len(samples)) {
		block := append([]float64(nil), samples[start:end]...)
		sort.Float64s(block)
		perBlock = append(perBlock, percentile(block, q))
		start = end
	}
	return median(perBlock)
}

// progress marks the end of one measured loop: seconds since the measured
// part began and OK responses received in it so far.
type progress struct {
	Seconds float64
	OK      int
}

// steadyRate is the median over the run's parts of each part's OK responses
// per second; marks are the ends of the measured loops, in order.
func steadyRate(marks []progress) float64 {
	if len(marks) == 0 {
		return math.NaN()
	}
	var perBlock []float64
	var prev progress
	for _, end := range blockEdges(len(marks)) {
		last := marks[end-1]
		perBlock = append(perBlock, float64(last.OK-prev.OK)/(last.Seconds-prev.Seconds))
		prev = last
	}
	return median(perBlock)
}

// tailCandidates are the tail percentiles a report may quote, ascending.
var tailCandidates = []float64{90, 95, 99, 99.9}

// supportedTail is the highest candidate percentile that still has at least
// ten samples beyond it; below 100 samples none does and it returns 50.
func supportedTail(n int) float64 {
	best := 50.0
	for _, q := range tailCandidates {
		if n-nearestRank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// latencySummary is what a report prints for one request class.
type latencySummary struct {
	Count         int
	P50, P90      float64
	P99, Max      float64 // informational only
	SupportedTail float64 // highest percentile with >= 10 samples beyond it
}

func summarize(samples []float64) latencySummary {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return latencySummary{
		Count:         len(sorted),
		P50:           percentile(sorted, 50),
		P90:           percentile(sorted, 90),
		P99:           percentile(sorted, 99),
		Max:           percentile(sorted, 100),
		SupportedTail: supportedTail(len(sorted)),
	}
}

// warmupShare of each client's loops runs before latency samples count.
const warmupShare = 0.05

// warmupLoops is how many of a client's first loops are warm-up.
func warmupLoops(loops int) int {
	return int(math.Ceil(warmupShare * float64(loops)))
}

// tally is one client's request accounting. A request that is refused (a
// shed 503, a 429), errors on the wire or fails the response sanity check is
// attempted and failed and contributes no latency sample: it misses every
// latency limit rather than improving a percentile by being fast.
type tally struct {
	Attempted int
	Failed    int
	// OKByClass counts, per request class, the 2xx responses that passed
	// their check, warm-up included: the acknowledged writes a recovery must
	// still hold are its commit and ingest entries.
	OKByClass map[string]int
	// MeasuredOK counts OK responses after warm-up: the numerator of
	// requests_per_s.
	MeasuredOK int
	// LatencyMS holds per-class latency samples taken after warm-up, in the
	// order they were taken.
	LatencyMS map[string][]float64
	// Slowdown is how much slower than the reference the machine is running
	// now (calib.go), set by the run between loops; ScaledMS holds every sample
	// of LatencyMS divided by the slowdown current when it was taken.
	Slowdown float64
	ScaledMS map[string][]float64
}

func newTally() *tally {
	return &tally{OKByClass: make(map[string]int), LatencyMS: make(map[string][]float64), Slowdown: 1, ScaledMS: make(map[string][]float64)}
}

func (t *tally) okCount(class string) int { return t.OKByClass[class] }

// record accounts one finished request.
func (t *tally) record(class string, ms float64, ok, measured bool) {
	t.Attempted++
	if !ok {
		t.Failed++
		return
	}
	t.OKByClass[class]++
	if measured {
		t.MeasuredOK++
		t.LatencyMS[class] = append(t.LatencyMS[class], ms)
		t.ScaledMS[class] = append(t.ScaledMS[class], ms/t.Slowdown)
	}
}

// failedShare is failed requests over requests attempted.
func (t *tally) failedShare() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// selfTimes returns, for every span, its duration minus the durations of the
// spans that name it as parent, in nanoseconds. The depth replay runs each
// depth as its own execution, so by noise a child can outlast its parent and
// a single self time can be negative; it is left so, because the reports
// take medians over many requests and clamping each sample first would bias
// every median upwards.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] += s.EndNS - s.StartNS
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.SpanID] = s.EndNS - s.StartNS - children[s.SpanID]
	}
	return self
}

// residualShare is |whole − Σ parts| ÷ whole: how far the median self times
// of the layers below a request's handler are from adding up to the
// handler's median. Medians do not add exactly, so this is the honest error
// bar of the per-layer table.
func residualShare(whole float64, parts []float64) float64 {
	if whole <= 0 {
		return math.NaN()
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return math.Abs(whole-sum) / whole
}

// spread summarises repeated runs of one metric.
type spread struct {
	Median, Q1, Q3 float64
	Min, Max       float64
}

// iqrShare is (Q3 − Q1) ÷ median, the run-to-run spread the bounds are
// judged against; rangeShare is (max − min) ÷ median.
func (s spread) iqrShare() float64   { return (s.Q3 - s.Q1) / s.Median }
func (s spread) rangeShare() float64 { return (s.Max - s.Min) / s.Median }

// spreadOf computes quartiles the way Python's statistics.quantiles(n=4)
// does (exclusive method), since that is what judges the benchmark.
func spreadOf(values []float64) spread {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return spread{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	quantile := func(i int) float64 { // i-th of 4 cut points
		if n == 1 {
			return sorted[0]
		}
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	return spread{Median: quantile(2), Q1: quantile(1), Q3: quantile(3), Min: sorted[0], Max: sorted[n-1]}
}
