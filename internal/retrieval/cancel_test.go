package retrieval

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// A cancelled context aborts the initial query with the context's error.
func TestInitialQueryCancelled(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.InitialQuery(ctx, 0, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("InitialQuery error = %v, want context.Canceled", err)
	}
	if _, err := e.InitialQueryBatch(ctx, []int{0, 1}, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("InitialQueryBatch error = %v, want context.Canceled", err)
	}
	// The engine itself is unharmed: the same queries succeed afterwards.
	if _, err := e.InitialQuery(context.Background(), 0, 8); err != nil {
		t.Fatal(err)
	}
}

// A cancelled context aborts a synchronous refinement; the same refinement
// without the cancellation still works afterwards — the session state was
// not corrupted by the abandoned round.
func TestRefineSyncCancelled(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Refine(ctx, SchemeLRFCSVM, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("Refine error = %v, want context.Canceled", err)
	}
	if _, err := s.Refine(context.Background(), SchemeLRFCSVM, 8); err != nil {
		t.Fatalf("Refine after a cancelled round: %v", err)
	}
}

// A deadline-expired asynchronous round must land in RefineFailed and never
// publish: LatestRefined keeps serving whatever was there before (here:
// nothing).
func TestRefineAsyncDeadlineExpiredNeverPublishes(t *testing.T) {
	visual, labels, log := testCollection(t)
	// A timeout of one nanosecond has always expired by the time the worker
	// picks the round up, whatever the scheduler does.
	e, err := NewEngine(visual, log, Options{RefineTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	token, err := s.RefineAsync(context.Background(), SchemeLRFCSVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	round := waitRound(t, s, token)
	if round.State != RefineFailed {
		t.Fatalf("round state = %q, want failed (deadline expired)", round.State)
	}
	if !errorMentionsDeadline(round.Err) {
		t.Errorf("round error = %q, want a deadline error", round.Err)
	}
	if _, ok := s.LatestRefined(); ok {
		t.Fatal("deadline-expired round was published")
	}
	if s.PendingRefines() != 0 || e.PendingRefines() != 0 {
		t.Fatalf("pending gauges not drained: session=%d engine=%d", s.PendingRefines(), e.PendingRefines())
	}
}

func errorMentionsDeadline(msg string) bool {
	return strings.Contains(msg, context.DeadlineExceeded.Error())
}

// RefineAsync with an already-cancelled submission context is rejected at
// admission — no round is queued, no training runs.
func TestRefineAsyncCancelledSubmission(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RefineAsync(ctx, SchemeLRFCSVM, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("RefineAsync error = %v, want context.Canceled", err)
	}
	if e.PendingRefines() != 0 {
		t.Fatalf("rejected submission left %d pending rounds", e.PendingRefines())
	}
}

// Engine.Close rejects new rounds and fails queued ones promptly; rounds
// that already published stay readable.
func TestEngineCloseStopsRefines(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{TrainWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	token, err := s.RefineAsync(context.Background(), SchemeLRFCSVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	first := waitRound(t, s, token)
	if first.State != RefineDone {
		t.Fatalf("pre-close round failed: %s", first.Err)
	}

	e.Close()
	if _, err := s.RefineAsync(context.Background(), SchemeLRFCSVM, 8); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("RefineAsync after Close = %v, want ErrEngineClosed", err)
	}
	// The published pre-close ranking survives.
	if latest, ok := s.LatestRefined(); !ok || latest.Token != token {
		t.Fatalf("published round lost after Close (ok=%v)", ok)
	}
	// Close is idempotent.
	e.Close()
}

// Close racing queued rounds: every round either completes or fails with
// the engine's cancellation — none hangs, and the pending gauges drain.
// Run with -race.
func TestEngineCloseDrainsQueuedRounds(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{TrainWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	var tokens []int
	for i := 0; i < 8; i++ {
		token, err := s.RefineAsync(context.Background(), SchemeLRFCSVM, 8)
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, token)
	}
	e.Close()
	for _, token := range tokens {
		waitRound(t, s, token) // must settle either way, not hang
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.PendingRefines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d rounds still pending after Close", e.PendingRefines())
		}
		time.Sleep(time.Millisecond)
	}
}

// After Close, synchronous queries, refinements and mutations all surface
// ErrEngineClosed — never context.Canceled: the caller did not hang up, the
// engine went away, and the server maps the two to different status codes.
// The caller's own cancellation still takes precedence when both hold.
func TestEngineClosedSurfacesErrEngineClosed(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := judgedSession(t, e, 0, labels)
	e.Close()
	if _, err := e.InitialQuery(context.Background(), 0, 8); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("InitialQuery after Close = %v, want ErrEngineClosed", err)
	}
	if _, err := e.InitialQueryBatch(context.Background(), []int{0, 1}, 8); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("InitialQueryBatch after Close = %v, want ErrEngineClosed", err)
	}
	if _, err := s.Refine(context.Background(), SchemeLRFCSVM, 8); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Refine after Close = %v, want ErrEngineClosed", err)
	}
	if err := s.Commit(context.Background()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Commit after Close = %v, want ErrEngineClosed", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.InitialQuery(ctx, 0, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("InitialQuery with cancelled caller = %v, want the caller's context.Canceled", err)
	}
}

// Close racing in-flight synchronous work (run with -race): every query and
// refinement either completes normally or fails with ErrEngineClosed —
// none may be misattributed to the caller as context.Canceled.
func TestEngineCloseRacesInFlightQueries(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sessions are judged up front: the race under test is Close vs the
	// query/refine loop, not Close vs session setup.
	sessions := make([]*Session, 4)
	for w := range sessions {
		sessions[w] = judgedSession(t, e, w, labels)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessions[w]
			<-start
			for i := 0; i < 50; i++ {
				if _, err := e.InitialQuery(context.Background(), w, 8); err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						t.Errorf("InitialQuery during Close = %v, want nil or ErrEngineClosed", err)
					}
					return
				}
				if _, err := s.Refine(context.Background(), SchemeLRFCSVM, 8); err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						t.Errorf("Refine during Close = %v, want nil or ErrEngineClosed", err)
					}
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(time.Millisecond)
	e.Close()
	wg.Wait()
}

// Commit and AddImages reject an already-cancelled context at admission,
// before any journal append or mutation.
func TestMutationsCancelledAtAdmission(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	preImages := e.NumImages()
	preSessions := e.NumLogSessions()
	s := judgedSession(t, e, 0, labels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Commit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit error = %v, want context.Canceled", err)
	}
	if _, err := e.AddImages(ctx, visual[:2]); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddImages error = %v, want context.Canceled", err)
	}
	if e.NumImages() != preImages || e.NumLogSessions() != preSessions {
		t.Fatal("cancelled mutation changed engine state")
	}
}
