// Package metrics is the dependency-free observability core of the serving
// stack: atomic counters and gauges, fixed-bucket latency histograms with a
// lock-free Observe, and a registry that renders everything in the
// Prometheus text exposition format (the format every mainstream scraper
// ingests), without importing anything beyond the standard library.
//
// The design constraint is the serving hot path: Observe, Inc and Add are
// single atomic operations (plus one CAS loop for float accumulation) with
// no locks and no allocations, so instrumenting a request path adds no
// contention point and no garbage. All read-side work — bucket cumulation,
// text rendering — happens at snapshot or scrape time; percentiles are the
// scraper's histogram_quantile over the exported buckets.
//
// Metrics that already exist elsewhere as live counters (admission gauges,
// journal statistics, index state) are re-exported through CounterFunc and
// GaugeFunc callbacks that read the original atomics at scrape time, so the
// exposition and any other view of the same counter can never disagree.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is valid.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is valid
// and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Add shifts the gauge by d (negative deltas decrease it).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Kind is the metric family type, mirroring the exposition TYPE line.
type Kind int

// Supported family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair attached to a series. Labels are rendered
// in the order given at registration.
type Label struct {
	Name, Value string
}

// Labels is the ordered label set of one series.
type Labels []Label

// series is one labeled sample set inside a family: exactly one of the
// value sources is set.
type series struct {
	labels    Labels
	signature string // canonical sorted form, for duplicate detection

	counter   *Counter
	counterFn func() int64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration takes a lock; the registered metrics themselves
// are lock-free to update. The zero value is not usable — construct with
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order, for deterministic output
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the family and checks series uniqueness. It
// returns the existing series when the exact (name, labels) pair was
// registered before — registration is idempotent for identical label sets —
// and nil when a new series should be appended. Kind or help mismatches on
// an existing name panic: they are programmer errors that would corrupt the
// exposition.
func (r *Registry) lookup(name, help string, kind Kind, labels Labels) (*family, *series) {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabelName(l.Name)
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		return f, nil
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	sig := signature(labels)
	for _, s := range f.series {
		if s.signature == sig {
			return f, s
		}
	}
	return f, nil
}

// Counter registers (or returns the previously registered) counter with the
// given name and label set.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, existing := r.lookup(name, help, KindCounter, labels)
	if existing != nil {
		if existing.counter == nil {
			panic(fmt.Sprintf("metrics: %s%s registered with a callback, requested as a settable counter", name, signature(labels)))
		}
		return existing.counter
	}
	c := &Counter{}
	f.series = append(f.series, &series{labels: labels, signature: signature(labels), counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotone non-decreasing by the counter contract; the
// registry trusts the caller (this is how pre-existing atomic counters are
// re-exported without double bookkeeping).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, existing := r.lookup(name, help, KindCounter, labels)
	if existing != nil {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, signature(labels)))
	}
	f.series = append(f.series, &series{labels: labels, signature: signature(labels), counterFn: fn})
}

// Gauge registers (or returns the previously registered) gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, existing := r.lookup(name, help, KindGauge, labels)
	if existing != nil {
		if existing.gauge == nil {
			panic(fmt.Sprintf("metrics: %s%s registered with a callback, requested as a settable gauge", name, signature(labels)))
		}
		return existing.gauge
	}
	g := &Gauge{}
	f.series = append(f.series, &series{labels: labels, signature: signature(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, existing := r.lookup(name, help, KindGauge, labels)
	if existing != nil {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, signature(labels)))
	}
	f.series = append(f.series, &series{labels: labels, signature: signature(labels), gaugeFn: fn})
}

// Histogram registers (or returns the previously registered) histogram with
// the given bucket upper bounds; nil bounds select DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, existing := r.lookup(name, help, KindHistogram, labels)
	if existing != nil {
		return existing.hist
	}
	h := NewHistogram(bounds)
	f.series = append(f.series, &series{labels: labels, signature: signature(labels), hist: h})
	return h
}

// signature canonicalizes a label set (sorted by name) so logically equal
// sets registered in different orders collide as intended.
func signature(labels Labels) string {
	if len(labels) == 0 {
		return "{}"
	}
	sorted := append(Labels(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	sig := "{"
	for _, l := range sorted {
		sig += l.Name + "=" + l.Value + ","
	}
	return sig + "}"
}
