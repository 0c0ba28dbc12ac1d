package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// completeOne runs one acquire/release cycle taking exactly d of fake time
// (fakeClock is shared with the lifecycle tests).
func completeOne(t *testing.T, l *classLimiter, clock *fakeClock, d time.Duration) {
	t.Helper()
	release, err := l.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(d)
	release()
}

// TestRetryAfterTracksDrainRate pins the shed hint to the class's observed
// drain rate: before any completion it falls back to the wait budget, a
// queue draining fast shortens it well below that budget, and a slow drain
// with a deep queue lengthens it (up to the cap).
func TestRetryAfterTracksDrainRate(t *testing.T) {
	clock := &fakeClock{}
	l := newClassLimiter(1, 20*time.Second)
	l.now = clock.Now

	// No completions yet: nothing is known about the drain rate, so the
	// hint is the configured wait budget.
	if got := l.retryAfterSeconds(); got != 20 {
		t.Fatalf("fallback hint = %d, want 20 (QueueWait seconds)", got)
	}

	// A queue draining at ~10ms per request must shorten the hint to the
	// 1-second floor — far below the static 20s budget.
	for i := 0; i < 8; i++ {
		completeOne(t, l, clock, 10*time.Millisecond)
	}
	if got := l.retryAfterSeconds(); got != 1 {
		t.Fatalf("fast-drain hint = %d, want 1", got)
	}

	// A drain that slowed to ~40s per request must lengthen the hint past
	// the static budget; the EWMA needs a few observations to travel.
	for i := 0; i < 64; i++ {
		completeOne(t, l, clock, 40*time.Second)
	}
	if got := l.retryAfterSeconds(); got <= 20 {
		t.Fatalf("slow-drain hint = %d, want > 20", got)
	}

	// Queue depth multiplies the estimate: three waiters behind a
	// single-slot class mean ~4 waves before a new arrival runs.
	perWave := l.retryAfterSeconds()
	l.queued.Store(3)
	if got := l.retryAfterSeconds(); got < 4*perWave-4 {
		t.Fatalf("queued hint = %d, want about 4x the per-wave hint %d", got, perWave)
	}
	l.queued.Store(1 << 20)
	if got := l.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Fatalf("saturated hint = %d, want the %d cap", got, maxRetryAfterSeconds)
	}
}

// A non-positive queue wait must disable queueing outright: over-limit
// requests shed immediately instead of arming a zero-duration timer whose
// expiry races the slot handoff. (The zero-duration-timer bug shed queued
// requests instantly while still reporting a wait queue in the limiter's
// config.)
func TestZeroQueueWaitShedsImmediately(t *testing.T) {
	for _, wait := range []time.Duration{0, -time.Second} {
		l := newClassLimiter(1, wait)
		if cap(l.room) != cap(l.slots) {
			t.Fatalf("queueWait=%v: room for %d requests over %d slots, want no queue", wait, cap(l.room), cap(l.slots))
		}
		release, err := l.acquire(context.Background())
		if err != nil {
			t.Fatalf("queueWait=%v: first acquire: %v", wait, err)
		}
		start := time.Now()
		if _, err := l.acquire(context.Background()); err != errOverloaded {
			t.Fatalf("queueWait=%v: over-limit acquire = %v, want errOverloaded", wait, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("queueWait=%v: immediate shed took %v", wait, took)
		}
		if got := l.shed.Load(); got != 1 {
			t.Fatalf("queueWait=%v: shed = %d, want 1", wait, got)
		}
		release()
		// The slot freed: the class admits again.
		if release, err = l.acquire(context.Background()); err != nil {
			t.Fatalf("queueWait=%v: post-release acquire: %v", wait, err)
		}
		release()
	}
}

// Config normalization: an untouched zero QueueWait selects the default (a
// zero value accidentally inherited from an empty Config must not turn
// every burst into a shed storm), while a negative value explicitly keeps
// the shed-immediately policy.
func TestQueueWaitConfigNormalization(t *testing.T) {
	if got := (Config{}).withDefaults().QueueWait; got != DefaultQueueWait {
		t.Errorf("zero QueueWait normalized to %v, want the %v default", got, DefaultQueueWait)
	}
	if got := (Config{QueueWait: -time.Second}).withDefaults().QueueWait; got >= 0 {
		t.Errorf("negative QueueWait normalized to %v, want it kept negative (shed immediately)", got)
	}
	if got := (Config{QueueWait: 5 * time.Second}).withDefaults().QueueWait; got != 5*time.Second {
		t.Errorf("explicit QueueWait normalized to %v, want it unchanged", got)
	}
}

// One slow cold-start completion (cache compilation, first page-in) must
// not pin the Retry-After hint high: the warm-up window averages the first
// few samples, so the outlier is diluted by 1/n instead of seeding the EWMA
// at full weight and decaying over ~8 waves.
func TestEWMAWarmupDilutesColdStartOutlier(t *testing.T) {
	clock := &fakeClock{}
	l := newClassLimiter(1, 20*time.Second)
	l.now = clock.Now

	// The cold-start outlier: one 80-second request.
	completeOne(t, l, clock, 80*time.Second)
	// Steady state: the class actually drains in ~10ms.
	for i := 1; i < ewmaWarmupSamples; i++ {
		completeOne(t, l, clock, 10*time.Millisecond)
	}
	// Warm-up mean: (80s + 7 * 10ms) / 8 ≈ 10.01s → hint 11. The old
	// first-sample seeding would still sit near 80 * (7/8)^7 ≈ 31s here.
	if got := l.retryAfterSeconds(); got > 11 {
		t.Fatalf("post-warm-up hint = %ds, want <= 11 (outlier diluted by the warm-up mean)", got)
	}
	// Past the warm-up window the EWMA keeps pulling toward the true rate.
	for i := 0; i < 16; i++ {
		completeOne(t, l, clock, 10*time.Millisecond)
	}
	if got := l.retryAfterSeconds(); got > 2 {
		t.Fatalf("steady-state hint = %ds, want <= 2 after the outlier washes out", got)
	}
}

// TestRetryAfterHeaderReflectsDrainRate drives the same property through the
// HTTP stack: after real fast completions, a shed 503's Retry-After must be
// the drain-derived 1s, not the 20-second wait budget the static hint would
// have parroted.
func TestRetryAfterHeaderReflectsDrainRate(t *testing.T) {
	srv, _, _, s := testServerFull(t, Config{MaxInflightQuery: 1, QueueWait: 20 * time.Second})
	h := serverHandlerOf(t, srv)

	// Seed the drain-rate estimate with a few real (fast) queries.
	for i := 0; i < 4; i++ {
		rr := serveWithCtx(t, h, context.Background(), http.MethodGet, "/api/query?image=1&k=3", nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("warm-up query %d: status %d (%s)", i, rr.Code, rr.Body.String())
		}
	}

	// Saturate the class: one request holds the only slot, another fills
	// the wait queue, so the next arrival is shed immediately.
	release, err := s.limQuery.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if rel, err := s.limQuery.acquire(qctx); err == nil {
			rel()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); s.limQuery.queued.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("filler request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	rr := serveWithCtx(t, h, context.Background(), http.MethodGet, "/api/query?image=1&k=3", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rr.Code, rr.Body.String())
	}
	retry, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", rr.Header().Get("Retry-After"))
	}
	if retry != 1 {
		t.Fatalf("Retry-After = %d; the draining queue should shorten the hint to 1, not the 20s budget", retry)
	}

	qcancel()
	<-queued
}

// TestLimiterNeverShedsWithinItsBounds: four closed-loop callers of a
// limiter of two can never be more than two running and two waiting, which
// is what the limiter admits, so none of them may be shed — however late a
// waiter that was handed its slot gets to run. (The queue bound used to
// count such a waiter as still queued, and an arrival in that window was
// answered 503 with room to spare.)
func TestLimiterNeverShedsWithinItsBounds(t *testing.T) {
	l := newClassLimiter(2, 10*time.Second)
	stop := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				release, err := l.acquire(context.Background())
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if n := l.inFlight.Load(); n > 2 {
					t.Errorf("%d in flight, ceiling 2", n)
				}
				release()
			}
		}()
	}
	wg.Wait()
	if st := l.status(); st.Shed != 0 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("after %d acquisitions: %+v, want nothing shed and the gauges drained", st.Admitted, st)
	}
}
