package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errOverloaded is the load-shedding signal: the request's class is at its
// in-flight limit and the wait budget (queue cap or queue wait) is
// exhausted. The admission middleware maps it to 503 + Retry-After, the
// server's one overload answer.
var errOverloaded = errors.New("server: overloaded")

// classLimiter is a weighted concurrency limiter for one request class
// (query, train or ingest). At most cap(slots) requests of the class run at
// once; as many more may wait for a slot, each for at most queueWait, and
// everything beyond that is shed immediately. A nil slots channel disables
// limiting (the gauges still count).
//
// room is what bounds the waiters: it holds one token per request the class
// has admitted or queued and not yet let go of, taken on arrival (full: shed)
// and given back after the slot on release, or on timeout and cancellation.
// So an arrival is shed only while cap(room) requests really are present —
// a counter of waiters cannot say that, because a waiter that has been handed
// its slot still counts until its goroutine gets to run.
//
// The wait queue is FIFO in the runtime's channel-receive order; fairness
// across classes is structural — each class has its own limiter, so a
// training burst can never starve queries.
type classLimiter struct {
	slots     chan struct{}
	room      chan struct{}
	queueWait time.Duration
	now       func() time.Time // injectable clock for the drain-rate tests

	inFlight atomic.Int64
	queued   atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64

	// svcEWMA tracks an exponentially weighted moving average of observed
	// service times (release minus acquire, in nanoseconds; 0 until the
	// first completion) and completions counts them. Together with the live
	// queue depth they estimate how long a shed client should actually back
	// off (retryAfterSeconds) instead of parroting the configured wait
	// budget.
	svcEWMA     atomic.Int64
	completions atomic.Int64
}

// newClassLimiter builds a limiter admitting maxInFlight concurrent
// requests (<=0 disables limiting), queueing up to maxInFlight more for at
// most queueWait each. A non-positive queueWait disables the wait queue
// entirely: room is then no larger than slots, so an over-limit request is
// shed on arrival and a request that got room always finds a slot free —
// none is ever armed on a zero-duration timer, which would race the slot
// handoff.
func newClassLimiter(maxInFlight int, queueWait time.Duration) *classLimiter {
	if queueWait < 0 {
		queueWait = 0
	}
	l := &classLimiter{queueWait: queueWait, now: time.Now}
	if maxInFlight > 0 {
		l.slots = make(chan struct{}, maxInFlight)
		room := maxInFlight
		if queueWait > 0 {
			room += maxInFlight
		}
		l.room = make(chan struct{}, room)
	}
	return l
}

// acquire admits the request or reports why it cannot run: errOverloaded
// when the class is saturated past its wait budget (shed — the caller
// should return 503), or the context's error when the client gave up while
// queued. On success the returned release must be called exactly once when
// the request finishes.
func (l *classLimiter) acquire(ctx context.Context) (release func(), err error) {
	admit := func() func() {
		l.inFlight.Add(1)
		l.admitted.Add(1)
		start := l.now()
		return func() {
			l.observe(l.now().Sub(start))
			l.inFlight.Add(-1)
			if l.slots != nil {
				// Slot before room: every slot holder also holds room, so
				// with no queue a request that got room finds a slot free.
				<-l.slots
				<-l.room
			}
		}
	}
	if l.slots == nil {
		return admit(), nil
	}
	select {
	case l.room <- struct{}{}:
	default:
		l.shed.Add(1)
		return nil, errOverloaded
	}
	// Fast path: a free slot admits without queueing.
	select {
	case l.slots <- struct{}{}:
		return admit(), nil
	default:
	}
	// Slow path: wait in the queue room was taken for.
	l.queued.Add(1)
	defer l.queued.Add(-1)
	timer := time.NewTimer(l.queueWait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return admit(), nil
	case <-timer.C:
		l.shed.Add(1)
		err = errOverloaded
	case <-ctx.Done():
		err = ctx.Err()
	}
	<-l.room // left the queue without a slot
	return nil, err
}

// ewmaWarmupSamples is how many completions are averaged arithmetically
// before the estimate switches to exponential weighting. Seeding the EWMA
// with the first raw sample let one slow cold-start request (cache
// compilation, first page-in) pin Retry-After hints high for the next ~8
// waves; a running mean over the first few samples dilutes the outlier by
// 1/n instead of carrying it at full weight.
const ewmaWarmupSamples = 8

// observe folds one completed request's service time into the drain-rate
// estimate: a running arithmetic mean for the first ewmaWarmupSamples
// completions (cold-start outliers get averaged down, not adopted), then an
// EWMA with alpha = 1/8 — smooth enough to ride out one slow outlier, fresh
// enough to track a load shift within a few requests.
func (l *classLimiter) observe(d time.Duration) {
	n := l.completions.Add(1)
	if d < 1 {
		d = 1 // keep "observed at least once" distinguishable from "never"
	}
	for {
		old := l.svcEWMA.Load()
		var next int64
		switch {
		case old == 0:
			next = int64(d)
		case n <= ewmaWarmupSamples:
			// Running mean over the warm-up window. n is a lower bound on
			// the samples already folded in; under concurrent completions
			// this only shortens the warm-up, never corrupts the mean.
			next = old + (int64(d)-old)/n
		default:
			next = old + (int64(d)-old)/8
		}
		if l.svcEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// maxRetryAfterSeconds caps the shed hint: past a few minutes the estimate
// says "severely overloaded", and a larger number only desynchronizes
// well-behaved clients further.
const maxRetryAfterSeconds = 300

// retryAfterSeconds estimates how long a shed client should back off, from
// the class's observed drain rate: everyone already queued ahead of it plus
// the in-flight wave must drain first, and each wave of maxInFlight requests
// takes about one smoothed service time. A class that has completed nothing
// yet has no drain rate to speak from and falls back to the configured wait
// budget. The hint is clamped to [1, maxRetryAfterSeconds] whole seconds
// (the Retry-After header's resolution).
func (l *classLimiter) retryAfterSeconds() int64 {
	ewma := l.svcEWMA.Load()
	if ewma == 0 || l.slots == nil {
		fallback := int64(l.queueWait / time.Second)
		if fallback < 1 {
			fallback = 1
		}
		return fallback
	}
	waves := l.queued.Load()/int64(cap(l.slots)) + 1
	est := time.Duration(waves * ewma)
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// status snapshots the limiter's gauges and counters.
func (l *classLimiter) status() AdmissionClassStatus {
	return AdmissionClassStatus{
		MaxInFlight: cap(l.slots),
		InFlight:    l.inFlight.Load(),
		Queued:      l.queued.Load(),
		Admitted:    l.admitted.Load(),
		Shed:        l.shed.Load(),
	}
}

// AdmissionClassStatus is one request class's admission gauges in
// GET /api/status: current in-flight and queued requests, the configured
// ceiling (0 = unlimited), and cumulative admitted/shed counts since
// process start.
type AdmissionClassStatus struct {
	MaxInFlight int   `json:"max_in_flight"`
	InFlight    int64 `json:"in_flight"`
	Queued      int64 `json:"queued"`
	Admitted    int64 `json:"admitted"`
	Shed        int64 `json:"shed"`
}

// AdmissionStatus is the admission-control section of GET /api/status,
// one entry per request class.
type AdmissionStatus struct {
	Query  AdmissionClassStatus `json:"query"`
	Train  AdmissionClassStatus `json:"train"`
	Ingest AdmissionClassStatus `json:"ingest"`
}
