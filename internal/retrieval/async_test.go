package retrieval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lrfcsvm/internal/linalg"
)

// waitRound polls a round until it completes (done or failed).
func waitRound(t *testing.T, s *Session, token int) RefineRound {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		round, ok := s.RefineStatus(token)
		if !ok {
			t.Fatalf("round %d vanished", token)
		}
		if round.State == RefineDone || round.State == RefineFailed {
			return round
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d stuck in state %q", token, round.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// judgedSession starts a session for the query and judges its Euclidean
// neighborhood against the ground-truth labels.
func judgedSession(t *testing.T, e *Engine, query int, labels []int) *Session {
	t.Helper()
	s, err := e.StartSession(query)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.InitialQuery(context.Background(), query, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := s.Judge(r.Image, labels[r.Image] == labels[query]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRefineAsyncMatchesSync pins the asynchronous path to the synchronous
// one: with identical judgments and a quiescent collection, the round's
// results must equal Session.Refine's exactly.
func TestRefineAsyncMatchesSync(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 2, labels)
	for _, kind := range []SchemeKind{SchemeEuclidean, SchemeRFSVM, SchemeLRF2SVMs, SchemeLRFCSVM} {
		want, err := s.Refine(context.Background(), kind, 10)
		if err != nil {
			t.Fatal(err)
		}
		token, err := s.RefineAsync(context.Background(), kind, 10)
		if err != nil {
			t.Fatal(err)
		}
		round := waitRound(t, s, token)
		if round.State != RefineDone {
			t.Fatalf("%s: round failed: %s", kind, round.Err)
		}
		if round.Scheme != kind || round.K != 10 {
			t.Errorf("%s: round metadata %+v", kind, round)
		}
		compareResults(t, fmt.Sprintf("async %s", kind), round.Results, want)

		latest, ok := s.LatestRefined()
		if !ok || latest.Token != token {
			t.Errorf("%s: latest round = %+v ok=%v, want token %d", kind, latest, ok, token)
		}
	}
	if p := e.PendingRefines(); p != 0 {
		t.Errorf("pending refines = %d after completion", p)
	}
}

func TestRefineAsyncValidation(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefineAsync(context.Background(), SchemeKind("bogus"), 5); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := s.RefineAsync(context.Background(), SchemeLRFCSVM, 5); err == nil {
		t.Error("judgment-less SVM round accepted")
	}
	if _, ok := s.RefineStatus(99); ok {
		t.Error("unknown token resolved")
	}
	if _, ok := s.LatestRefined(); ok {
		t.Error("latest round before any submission")
	}
	// The judgment-free Euclidean round is allowed, like the sync path.
	token, err := s.RefineAsync(context.Background(), SchemeEuclidean, 5)
	if err != nil {
		t.Fatal(err)
	}
	if round := waitRound(t, s, token); round.State != RefineDone || len(round.Results) != 5 {
		t.Errorf("euclidean round: %+v", round)
	}
	_ = labels
}

// TestRefineAsyncAdmissionCap checks the engine-wide backpressure: once
// maxPendingRefines rounds are in flight, further submissions fail fast
// instead of queueing unbounded training work.
func TestRefineAsyncAdmissionCap(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 1, labels)
	// Fill the admission budget directly (the counter is what the cap
	// guards) so the rejection is deterministic regardless of how fast the
	// worker pool drains real rounds.
	e.pendingRefines.Add(maxPendingRefines)
	if _, err := s.RefineAsync(context.Background(), SchemeEuclidean, 5); !errors.Is(err, ErrTooManyRefines) {
		t.Fatalf("submission above the cap: %v, want ErrTooManyRefines", err)
	}
	if got := e.PendingRefines(); got != maxPendingRefines {
		t.Errorf("rejected submission leaked into the pending count: %d", got)
	}
	e.pendingRefines.Add(-maxPendingRefines)
	token, err := s.RefineAsync(context.Background(), SchemeEuclidean, 5)
	if err != nil {
		t.Fatal(err)
	}
	if round := waitRound(t, s, token); round.State != RefineDone {
		t.Errorf("round after backpressure cleared: %+v", round)
	}
}

// TestRefineAsyncLatestMonotonic submits rounds one after another and
// checks the published latest round only ever moves forward.
func TestRefineAsyncLatestMonotonic(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 3, labels)
	last := 0
	for i := 0; i < 5; i++ {
		token, err := s.RefineAsync(context.Background(), SchemeRFSVM, 6)
		if err != nil {
			t.Fatal(err)
		}
		if token <= last {
			t.Fatalf("token %d not increasing past %d", token, last)
		}
		waitRound(t, s, token)
		latest, ok := s.LatestRefined()
		if !ok || latest.Token != token {
			t.Fatalf("latest = %+v ok=%v, want token %d", latest, ok, token)
		}
		last = token
	}
}

// TestPublishRoundGate pins the publish discipline of completed rounds:
// failed rounds never reach LatestRefined, and older tokens never displace
// newer ones — readers always keep the last good ranking.
func TestPublishRoundGate(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 2, labels)
	good := RefineRound{Token: 2, Scheme: SchemeRFSVM, K: 3, State: RefineDone, Results: []Result{{Image: 1}}}
	s.publishRound(good)
	s.publishRound(RefineRound{Token: 3, State: RefineFailed, Err: "boom"})
	if latest, ok := s.LatestRefined(); !ok || latest.Token != 2 || latest.State != RefineDone {
		t.Errorf("failed round displaced the good ranking: %+v", latest)
	}
	s.publishRound(RefineRound{Token: 1, State: RefineDone})
	if latest, _ := s.LatestRefined(); latest.Token != 2 {
		t.Errorf("older round moved latest backwards: %+v", latest)
	}
	s.publishRound(RefineRound{Token: 4, State: RefineDone})
	if latest, _ := s.LatestRefined(); latest.Token != 4 {
		t.Errorf("newer good round not published: %+v", latest)
	}
}

// TestRefineAsyncRoundRetention checks the per-session retention bound:
// completed rounds older than the most recent maxRetainedRounds are
// pruned, while the latest completed round stays addressable.
func TestRefineAsyncRoundRetention(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 4, labels)
	total := maxRetainedRounds + 8
	for i := 0; i < total; i++ {
		token, err := s.RefineAsync(context.Background(), SchemeEuclidean, 4)
		if err != nil {
			t.Fatal(err)
		}
		waitRound(t, s, token)
	}
	if _, ok := s.RefineStatus(1); ok {
		t.Error("round 1 still addressable past the retention bound")
	}
	if _, ok := s.RefineStatus(total); !ok {
		t.Errorf("latest round %d pruned", total)
	}
	s.mu.Lock()
	kept := len(s.rounds)
	s.mu.Unlock()
	if kept > maxRetainedRounds+1 {
		t.Errorf("%d rounds retained, bound is %d", kept, maxRetainedRounds+1)
	}
}

// TestConcurrentAsyncRefine is the feedback-training stress test of the
// async path: one engine serving concurrent image ingestion, initial
// queries, synchronous refinements and asynchronous rounds (submitted,
// polled and read through LatestRefined mid-train). Run under -race it
// checks the round lifecycle, the bounded worker pool and the
// publish-then-swap discipline against the live-collection machinery of
// dynamic_test.go.
func TestConcurrentAsyncRefine(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{TrainWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Ingesters keep growing the collection under the training rounds.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 5; i++ {
				if _, err := e.AddImages(context.Background(), randomDescriptors(rng, 1+rng.Intn(3))); err != nil {
					report(fmt.Errorf("ingest: %w", err))
					return
				}
			}
		}(400 + uint64(g))
	}

	// Queriers observe whatever epoch is current.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 10; i++ {
				if _, err := e.InitialQuery(context.Background(), rng.Intn(e.NumImages()), 8); err != nil {
					report(fmt.Errorf("query: %w", err))
					return
				}
			}
		}(500 + uint64(g))
	}

	// Async feedback workers: each runs judged sessions that submit
	// several rounds, polls them to completion, reads LatestRefined
	// mid-flight and mixes in a synchronous Refine.
	schemes := []SchemeKind{SchemeRFSVM, SchemeLRFCSVM, SchemeLRF2SVMs, SchemeEuclidean}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(worker int, seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 3; i++ {
				q := rng.Intn(e.NumImages())
				s, err := e.StartSession(q)
				if err != nil {
					report(fmt.Errorf("start: %w", err))
					return
				}
				initial, err := e.InitialQuery(context.Background(), q, 6)
				if err != nil {
					report(fmt.Errorf("initial: %w", err))
					return
				}
				for j, r := range initial {
					if err := s.Judge(r.Image, j%2 == 0); err != nil {
						report(fmt.Errorf("judge: %w", err))
						return
					}
				}
				var tokens []int
				for r := 0; r < 3; r++ {
					token, err := s.RefineAsync(context.Background(), schemes[(worker+i+r)%len(schemes)], 6)
					if err != nil {
						report(fmt.Errorf("submit: %w", err))
						return
					}
					tokens = append(tokens, token)
					s.LatestRefined() // lock-free read racing the trainers
				}
				if _, err := s.Refine(context.Background(), schemes[worker%len(schemes)], 6); err != nil {
					report(fmt.Errorf("sync refine: %w", err))
					return
				}
				for _, token := range tokens {
					round := waitRound(t, s, token)
					if round.State != RefineDone {
						report(fmt.Errorf("round %d failed: %s", token, round.Err))
						return
					}
					if len(round.Results) != 6 {
						report(fmt.Errorf("round %d returned %d results", token, len(round.Results)))
						return
					}
				}
				if err := s.Commit(context.Background()); err != nil {
					report(fmt.Errorf("commit: %w", err))
					return
				}
			}
		}(g, 600+uint64(g))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// All rounds accounted for: the pending gauge must drain to zero.
	deadline := time.Now().Add(10 * time.Second)
	for e.PendingRefines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending refines stuck at %d", e.PendingRefines())
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := e.NumLogSessions(), 25+3*3; got != want {
		t.Errorf("log sessions = %d, want %d", got, want)
	}
	_ = labels
}

// TestSessionPendingRefines pins the per-session pending counter the
// server's eviction paths rely on: a submitted round counts as pending
// until it completes, deterministically observed by occupying the training
// pool so the round cannot start.
func TestSessionPendingRefines(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{TrainWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 2, labels)
	if p := s.PendingRefines(); p != 0 {
		t.Fatalf("fresh session has %d pending refines", p)
	}
	// Occupy the single training slot: submitted rounds stay pending.
	e.trainSem <- struct{}{}
	token, err := s.RefineAsync(context.Background(), SchemeEuclidean, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.PendingRefines(); p != 1 {
		t.Errorf("blocked round: %d pending refines, want 1", p)
	}
	<-e.trainSem
	round := waitRound(t, s, token)
	if round.State != RefineDone {
		t.Fatalf("round failed: %s", round.Err)
	}
	if p := s.PendingRefines(); p != 0 {
		t.Errorf("completed round still pending: %d", p)
	}
}
