package retrieval_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// parkedJournal is a journal whose AppendSession parks until the test
// releases it: a commit held inside its journal append, as an fsync holds
// it, with the mutation lock taken.
type parkedJournal struct{ parked, release chan struct{} }

func newParkedJournal() *parkedJournal {
	return &parkedJournal{parked: make(chan struct{}), release: make(chan struct{})}
}

func (j *parkedJournal) AppendSession(feedbacklog.Session) error {
	j.parked <- struct{}{}
	<-j.release
	return nil
}

func (j *parkedJournal) AppendImages([]linalg.Vector) error { return nil }

// returnsWithin fails the test unless read returns within two seconds.
func returnsWithin(t *testing.T, what string, read func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- read() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Errorf("%s waited for the commit parked in its journal append", what)
	}
}

// TestReadsDoNotWaitForACommit parks a commit inside its journal append, the
// mutation lock held, and holds every read to return meanwhile: a refine
// under each scheme, the log's size, the log, the collection. Once the
// commit is released, the next refine ranks its session: it answers as an
// engine started over the grown log does, bit for bit.
func TestReadsDoNotWaitForACommit(t *testing.T) {
	const n = 300
	rng := linalg.NewRNG(17)
	rows := categoryRows(rng, n, 8)
	log := categoryLog(t, rng, n)
	sessions := log.NumSessions()
	journal := newParkedJournal()
	e, err := retrieval.NewEngine(rows, log, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := rng.Intn(n)
	judged := page(rng, n, query)
	probe := func(e *retrieval.Engine) *retrieval.Session {
		s, err := e.StartSession(query)
		if err != nil {
			t.Fatal(err)
		}
		for img, relevant := range judged {
			if err := s.Judge(img, relevant); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s := probe(e)

	committing, committed := judgedSession(t, e, rng, n), make(chan error, 1)
	go func() { committed <- committing.Commit(ctx) }()
	<-journal.parked
	released := false
	defer func() {
		if !released {
			close(journal.release) // let whatever waits on the commit finish
		}
	}()
	for _, kind := range []retrieval.SchemeKind{retrieval.SchemeEuclidean, retrieval.SchemeRFSVM, retrieval.SchemeLRF2SVMs, retrieval.SchemeLRFCSVM} {
		returnsWithin(t, "a refine under "+string(kind), func() error {
			_, err := s.Refine(ctx, kind, 10)
			return err
		})
	}
	returnsWithin(t, "NumLogSessions", func() error {
		if got := e.NumLogSessions(); got != sessions {
			t.Errorf("NumLogSessions() = %d during the commit, want %d", got, sessions)
		}
		return nil
	})
	returnsWithin(t, "Log", func() error {
		if got := e.Log().NumSessions(); got != sessions {
			t.Errorf("Log() holds %d sessions during the commit, want %d", got, sessions)
		}
		return nil
	})
	returnsWithin(t, "Collection", func() error {
		if got := e.Collection(); got.Images != n || got.Epoch != 1 {
			t.Errorf("Collection() = %+v during the commit, want %d images at epoch 1", got, n)
		}
		return nil
	})

	close(journal.release)
	released = true
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if got := e.NumLogSessions(); got != sessions+1 {
		t.Fatalf("NumLogSessions() = %d after the commit, want %d", got, sessions+1)
	}
	fresh, err := retrieval.NewEngine(rows, e.Log().Clone(), retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Refine(ctx, retrieval.SchemeLRFCSVM, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := probe(fresh).Refine(ctx, retrieval.SchemeLRFCSVM, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the refine after the commit ranks %v, an engine started over the grown log %v", got, want)
	}
}
