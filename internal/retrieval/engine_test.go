package retrieval

import (
	"context"
	"sync"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

// testCollection builds a small clustered collection with a partially filled
// feedback log.
func testCollection(t *testing.T) ([]linalg.Vector, []int, *feedbacklog.Log) {
	t.Helper()
	rng := linalg.NewRNG(3)
	var visual []linalg.Vector
	var labels []int
	for c := 0; c < 4; c++ {
		for i := 0; i < 15; i++ {
			visual = append(visual, linalg.Vector{float64(4*c) + rng.Normal(0, 0.8), rng.Normal(0, 0.8), rng.Normal(0, 0.8)})
			labels = append(labels, c)
		}
	}
	log, err := feedbacklog.Simulate(visual, labels, feedbacklog.SimulatorConfig{
		Sessions: 25, ReturnedPerSession: 10, NoiseRate: 0.05, ExplorationFraction: 0.3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return visual, labels, log
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	visual, _, _ := testCollection(t)
	wrongLog := feedbacklog.NewLog(3)
	if _, err := NewEngine(visual, wrongLog, Options{}); err == nil {
		t.Error("mismatched log accepted")
	}
	// A nil log is replaced by an empty one.
	e, err := NewEngine(visual, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumLogSessions() != 0 {
		t.Error("fresh engine has log sessions")
	}
}

func TestInitialQuery(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.InitialQuery(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Image != 0 {
		t.Errorf("query image not ranked first: %+v", results[0])
	}
	// Scores must be non-increasing.
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	// Most of the top-10 should share the query's category in this easy
	// clustered collection.
	same := 0
	for _, r := range results {
		if labels[r.Image] == labels[0] {
			same++
		}
	}
	if same < 7 {
		t.Errorf("only %d/10 initial results share the query category", same)
	}
	if _, err := e.InitialQuery(context.Background(), -1, 5); err == nil {
		t.Error("negative query accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.NumLogSessions()

	session, err := e.StartSession(2)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := e.InitialQuery(context.Background(), 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range initial {
		if err := session.Judge(r.Image, labels[r.Image] == labels[2]); err != nil {
			t.Fatal(err)
		}
	}
	if session.NumJudgments() != 12 {
		t.Errorf("judgments = %d", session.NumJudgments())
	}

	for _, kind := range []SchemeKind{SchemeEuclidean, SchemeRFSVM, SchemeLRF2SVMs, SchemeLRFCSVM} {
		results, err := session.Refine(context.Background(), kind, 15)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(results) != 15 {
			t.Fatalf("%s: got %d results", kind, len(results))
		}
	}

	if err := session.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.NumLogSessions() != before+1 {
		t.Errorf("log sessions %d, want %d", e.NumLogSessions(), before+1)
	}
	if err := session.Commit(context.Background()); err == nil {
		t.Error("double commit accepted")
	}
	if err := session.Judge(0, true); err == nil {
		t.Error("judging after commit accepted")
	}
}

func TestRefineRequiresJudgments(t *testing.T) {
	visual, _, log := testCollection(t)
	e, _ := NewEngine(visual, log, Options{})
	s, _ := e.StartSession(0)
	if _, err := s.Refine(context.Background(), SchemeRFSVM, 5); err == nil {
		t.Error("RF-SVM without judgments accepted")
	}
	// Euclidean works without judgments.
	if _, err := s.Refine(context.Background(), SchemeEuclidean, 5); err != nil {
		t.Errorf("Euclidean without judgments failed: %v", err)
	}
}

func TestCommitEmptySessionRejected(t *testing.T) {
	visual, _, log := testCollection(t)
	e, _ := NewEngine(visual, log, Options{})
	s, _ := e.StartSession(0)
	if err := s.Commit(context.Background()); err == nil {
		t.Error("empty commit accepted")
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range []string{"euclidean", "rf-svm", "lrf-2svms", "lrf-csvm"} {
		if _, err := ParseScheme(s); err != nil {
			t.Errorf("ParseScheme(%q): %v", s, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestStartSessionValidation(t *testing.T) {
	visual, _, log := testCollection(t)
	e, _ := NewEngine(visual, log, Options{})
	if _, err := e.StartSession(len(visual)); err == nil {
		t.Error("out-of-range query accepted")
	}
	s, _ := e.StartSession(0)
	if err := s.Judge(-1, true); err == nil {
		t.Error("out-of-range judgment accepted")
	}
}

func TestConcurrentSessions(t *testing.T) {
	visual, labels, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			s, err := e.StartSession(q)
			if err != nil {
				errs <- err
				return
			}
			initial, err := e.InitialQuery(context.Background(), q, 8)
			if err != nil {
				errs <- err
				return
			}
			for _, r := range initial {
				if err := s.Judge(r.Image, labels[r.Image] == labels[q]); err != nil {
					errs <- err
					return
				}
			}
			if _, err := s.Refine(context.Background(), SchemeLRF2SVMs, 10); err != nil {
				errs <- err
				return
			}
			errs <- s.Commit(context.Background())
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if e.NumLogSessions() != log.NumSessions() {
		// log is shared with the engine, so NumLogSessions reflects the
		// committed sessions as well; just sanity-check growth.
		if e.NumLogSessions() < 8 {
			t.Errorf("expected at least 8 sessions, have %d", e.NumLogSessions())
		}
	}
}
