package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/metrics"
)

// Metric naming: everything the server exports carries the cbir_ prefix.
// Request-level series are labeled by endpoint (the route's short name, not
// the raw path) and either the status class (latency histograms — 5xx
// latency and 2xx latency answer different questions) or the exact code
// (request counters — 499 vs 503 vs 504 is the whole point of the
// status-code sweep). Everything that already exists as a live counter
// elsewhere (admission gauges, engine state, journal stats) is re-exported
// through CounterFunc/GaugeFunc callbacks reading the same atomics
// /api/status reads, so the two surfaces cannot disagree.

// endpointMetrics is the per-endpoint instrumentation: an in-flight gauge,
// one latency histogram per status class, and one request counter per exact
// status code. Histograms and counters are registered lazily on first use —
// the registry's registration is idempotent, and the resolved pointers are
// cached in atomics so the steady-state request path never touches the
// registry lock.
type endpointMetrics struct {
	registry *metrics.Registry
	name     string
	inflight *metrics.Gauge
	// classes caches the per-status-class histograms, indexed status/100
	// (0 holds the catch-all for out-of-range codes).
	classes [6]atomic.Pointer[metrics.Histogram]
	// codes caches the per-status-code counters.
	codes [600]atomic.Pointer[metrics.Counter]
}

// Metric family names and help strings, shared by registration and the
// package tests.
const (
	metricRequestDuration = "cbir_http_request_duration_seconds"
	metricRequestsTotal   = "cbir_http_requests_total"
	metricInflight        = "cbir_http_inflight_requests"

	helpRequestDuration = "Request latency in seconds by endpoint and status class."
	helpRequestsTotal   = "Requests served by endpoint and status code."
	helpInflight        = "Requests currently being served by endpoint."
)

func newEndpointMetrics(r *metrics.Registry, name string) *endpointMetrics {
	return &endpointMetrics{
		registry: r,
		name:     name,
		inflight: r.Gauge(metricInflight, helpInflight, metrics.Labels{{Name: "endpoint", Value: name}}),
	}
}

// statusClasses names the histogram label for each status/100 bucket.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// observe records one finished request.
func (em *endpointMetrics) observe(status int, seconds float64) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	h := em.classes[class].Load()
	if h == nil {
		h = em.registry.Histogram(metricRequestDuration, helpRequestDuration, metrics.Labels{
			{Name: "endpoint", Value: em.name},
			{Name: "class", Value: statusClasses[class]},
		}, nil)
		em.classes[class].Store(h)
	}
	h.Observe(seconds)

	code := status
	if code < 0 || code >= len(em.codes) {
		code = 0
	}
	c := em.codes[code].Load()
	if c == nil {
		c = em.registry.Counter(metricRequestsTotal, helpRequestsTotal, metrics.Labels{
			{Name: "endpoint", Value: em.name},
			{Name: "code", Value: statusCodeLabel(status)},
		})
		em.codes[code].Store(c)
	}
	c.Inc()
}

func statusCodeLabel(status int) string {
	// The handlers only emit a small fixed set of codes; strconv would be
	// fine too, but a switch keeps the hot path allocation-free even on the
	// first observation of a code.
	switch status {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 413:
		return "413"
	case 499:
		return "499"
	case 500:
		return "500"
	case 503:
		return "503"
	case 504:
		return "504"
	case 0:
		return "other"
	default:
		// Codes outside the known set share the index-0 slot; label them
		// honestly rather than inventing per-code series for them.
		return "other"
	}
}

// statusWriter captures the status code a handler writes; a handler that
// writes the body without an explicit WriteHeader gets the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a route with the request instrumentation. It sits
// outermost — outside guard and admit — so shed, rejected-at-shutdown and
// cancelled-in-queue requests are measured like any other: the 503s
// overload provokes are exactly the 503s the histograms record.
func (s *Server) instrument(em *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		em.inflight.Inc()
		start := s.now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := s.now().Sub(start).Seconds()
		em.inflight.Dec()
		status := sw.status
		if status == 0 {
			// Nothing written: net/http sends 200 with an empty body.
			status = http.StatusOK
		}
		em.observe(status, elapsed)
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format. It is deliberately not behind guard: a server that is shutting
// down (or whose engine closed) must stay scrapable — the final scrape is
// how the shutdown itself gets observed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", metrics.TextContentType)
	_ = s.metrics.WriteText(w)
}

// registerStackMetrics re-exports the serving stack's pre-existing counters
// through the registry. Every callback reads the same atomic (or takes the
// same snapshot) GET /api/status reads.
func (s *Server) registerStackMetrics() {
	r := s.metrics

	// Admission control, one series per class — the same numbers as the
	// "admission" section of /api/status.
	for _, cl := range []struct {
		name string
		lim  *classLimiter
	}{
		{"query", s.limQuery},
		{"train", s.limTrain},
		{"ingest", s.limIngest},
	} {
		lim := cl.lim
		labels := metrics.Labels{{Name: "class", Value: cl.name}}
		r.GaugeFunc("cbir_admission_in_flight", "Requests of the class currently running.", labels,
			func() float64 { return float64(lim.inFlight.Load()) })
		r.GaugeFunc("cbir_admission_queued", "Requests of the class waiting for a slot.", labels,
			func() float64 { return float64(lim.queued.Load()) })
		r.GaugeFunc("cbir_admission_max_in_flight", "Configured concurrency ceiling of the class (0 = unlimited).", labels,
			func() float64 { return float64(cap(lim.slots)) })
		r.CounterFunc("cbir_admission_admitted_total", "Requests of the class admitted since start.", labels,
			func() int64 { return lim.admitted.Load() })
		r.CounterFunc("cbir_admission_shed_total", "Requests of the class shed with 503 since start.", labels,
			func() int64 { return lim.shed.Load() })
	}

	// Engine and session-table state.
	engine := s.engine
	r.GaugeFunc("cbir_engine_images", "Images in the current collection epoch.", nil,
		func() float64 { return float64(engine.NumImages()) })
	r.GaugeFunc("cbir_engine_epoch", "Collection epoch sequence number (1 = initial collection).", nil,
		func() float64 { return float64(engine.Collection().Epoch) })
	r.GaugeFunc("cbir_engine_collection_shards", "Shards of the current collection epoch.", nil,
		func() float64 { return float64(engine.Collection().Shards) })
	r.GaugeFunc("cbir_engine_log_sessions", "Feedback sessions accumulated in the long-term log.", nil,
		func() float64 { return float64(engine.NumLogSessions()) })
	r.GaugeFunc("cbir_server_active_sessions", "Live feedback sessions in the server's table.", nil,
		func() float64 { return float64(s.numSessions()) })
	r.GaugeFunc("cbir_kernel_backend_info", "Active kernel compute backend (value is always 1).",
		metrics.Labels{{Name: "backend", Value: kernel.Backend()}},
		func() float64 { return 1 })

	// Durability, present when a journal is attached (same source as the
	// "durability" section of /api/status).
	if s.cfg.Durability != nil {
		durability := s.cfg.Durability
		r.CounterFunc("cbir_journal_records_total", "Records appended to the feedback journal since start.", nil,
			func() int64 { return durability().JournaledRecords })
		r.CounterFunc("cbir_journal_sessions_total", "Feedback sessions journaled since start.", nil,
			func() int64 { return durability().JournaledSessions })
		r.CounterFunc("cbir_journal_images_total", "Ingested images journaled since start.", nil,
			func() int64 { return durability().JournaledImages })
		r.GaugeFunc("cbir_journal_bytes", "Current journal file size (compaction shrinks it).", nil,
			func() float64 { return float64(durability().JournalBytes) })
		r.CounterFunc("cbir_journal_sync_failures_total", "Journal fsyncs that failed since start, background flushes included.", nil,
			func() int64 { return durability().SyncFailures })
		r.CounterFunc("cbir_journal_snapshots_total", "Snapshot-compaction passes completed since start.", nil,
			func() int64 { return durability().Snapshots })
		r.GaugeFunc("cbir_journal_last_snapshot_age_seconds", "Seconds since the last snapshot (-1 before the first).", nil,
			func() float64 {
				last := durability().LastSnapshotUnix
				if last == 0 {
					return -1
				}
				return s.now().Sub(time.Unix(last, 0)).Seconds()
			})
	}
}
