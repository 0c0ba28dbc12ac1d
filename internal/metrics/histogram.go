package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefLatencyBuckets is the default request-latency bucket layout, in
// seconds: sub-millisecond resolution where the fast paths live (the
// Euclidean query path ranks a CI-scale collection in microseconds), then
// roughly 2.5x steps out to ten seconds, past every configured per-class
// timeout. Seventeen buckets keep a histogram's footprint at a few hundred
// bytes while giving percentile interpolation a bucket width under 2.5x
// everywhere.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add into the bucket and a CAS loop for the float sum — no
// locks, no allocation, safe for any number of concurrent observers. Reading
// happens through Snapshot, which is concurrency-safe but only approximately
// consistent: an Observe racing the snapshot may appear in the bucket counts
// but not yet in the sum (or vice versa). That is the standard trade for a
// lock-free write path and is harmless for monitoring.
//
// Observations are assumed non-negative (latencies): a scraper's percentile
// interpolation treats the first bucket as spanning [0, bounds[0]].
type Histogram struct {
	// bounds are the strictly increasing, finite bucket upper bounds; an
	// observation v lands in the first bucket with v <= bound (upper bounds
	// are inclusive, matching the exposition's le semantics). counts has
	// one extra slot for the +Inf overflow bucket.
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over the given upper bounds; nil or empty
// selects DefLatencyBuckets. Bounds must be finite and strictly increasing
// (the constructor panics otherwise — a malformed layout is a programmer
// error that would silently misbucket every observation).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	bounds = append([]float64(nil), bounds...)
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v; beyond the last finite bound
	// the observation overflows into +Inf.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// is per-bucket (not cumulative) with the trailing +Inf bucket last.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
