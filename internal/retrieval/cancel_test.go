package retrieval

import (
	"context"
	"errors"
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
	// The engine itself is unharmed: the same queries succeed afterwards.
	if _, err := e.InitialQuery(context.Background(), 0, 8); err != nil {
		t.Fatal(err)
	}
}

// A cancelled context aborts a refinement; the same refinement
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

// After Close, queries, refinements and mutations all surface
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
	e.Close() // idempotent
	if _, err := e.InitialQuery(context.Background(), 0, 8); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("InitialQuery after Close = %v, want ErrEngineClosed", err)
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

// Close racing in-flight work (run with -race): every query and
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
