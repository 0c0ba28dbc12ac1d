package feedbacklog

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

func TestNewLogPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLog(0)
}

func TestAddSessionValidation(t *testing.T) {
	l := NewLog(10)
	if _, err := l.AddSession(Session{Judgments: map[int]Judgment{}}); err == nil {
		t.Error("empty session accepted")
	}
	if _, err := l.AddSession(Session{Judgments: map[int]Judgment{10: Relevant}}); err == nil {
		t.Error("out-of-range image accepted")
	}
	if _, err := l.AddSession(Session{Judgments: map[int]Judgment{3: 2}}); err == nil {
		t.Error("invalid judgment accepted")
	}
	// A query image outside the collection must be rejected too: a corrupt
	// snapshot or journal record would otherwise smuggle it into the log
	// and it would only explode later in the query path.
	if _, err := l.AddSession(Session{QueryImage: 10, Judgments: map[int]Judgment{3: Relevant}}); err == nil {
		t.Error("out-of-range query image accepted")
	}
	if _, err := l.AddSession(Session{QueryImage: -1, Judgments: map[int]Judgment{3: Relevant}}); err == nil {
		t.Error("negative query image accepted")
	}
	id, err := l.AddSession(Session{Judgments: map[int]Judgment{3: Relevant, 4: Irrelevant}})
	if err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
	if id != 0 || l.NumSessions() != 1 {
		t.Errorf("id=%d sessions=%d", id, l.NumSessions())
	}
}

func TestSessionIDsSequential(t *testing.T) {
	l := NewLog(5)
	for i := 0; i < 3; i++ {
		id, err := l.AddSession(Session{Judgments: map[int]Judgment{i: Relevant}})
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Errorf("session %d got id %d", i, id)
		}
	}
	if l.Sessions()[2].ID != 2 {
		t.Error("stored session ID mismatch")
	}
}

func TestRelevanceVector(t *testing.T) {
	l := NewLog(6)
	mustAdd(t, l, map[int]Judgment{0: Relevant, 1: Irrelevant})
	mustAdd(t, l, map[int]Judgment{0: Relevant, 2: Relevant})
	mustAdd(t, l, map[int]Judgment{1: Relevant, 0: Irrelevant})

	all := l.RelevanceVectors()
	if len(all) != 6 {
		t.Fatalf("got %d vectors, want 6", len(all))
	}
	r0 := all[0]
	if r0.Dim != 3 {
		t.Fatalf("r0 dim = %d, want 3", r0.Dim)
	}
	if r0.At(0) != 1 || r0.At(1) != 1 || r0.At(2) != -1 {
		t.Errorf("r0 = %v", r0.ToDense())
	}
	r5 := all[5]
	if len(r5.Entries) != 0 {
		t.Errorf("never-judged image has %d non-zeros", len(r5.Entries))
	}
}

func TestStats(t *testing.T) {
	l := NewLog(10)
	mustAdd(t, l, map[int]Judgment{0: Relevant, 1: Irrelevant, 2: Irrelevant})
	mustAdd(t, l, map[int]Judgment{0: Relevant, 3: Relevant})
	st := l.Stats()
	if st.Sessions != 2 {
		t.Errorf("Sessions = %d", st.Sessions)
	}
	if st.TotalJudgments != 5 {
		t.Errorf("TotalJudgments = %d, want 5", st.TotalJudgments)
	}
	if st.JudgedImages != 4 {
		t.Errorf("JudgedImages = %d, want 4", st.JudgedImages)
	}
	if st.CoverageFraction != 0.4 {
		t.Errorf("CoverageFraction = %v", st.CoverageFraction)
	}
}

func TestEmptyLogStats(t *testing.T) {
	st := NewLog(5).Stats()
	if st.Sessions != 0 || st.TotalJudgments != 0 || st.CoverageFraction != 0 {
		t.Errorf("empty log stats = %+v", st)
	}
}

func mustAdd(t *testing.T, l *Log, judgments map[int]Judgment) {
	t.Helper()
	if _, err := l.AddSession(Session{Judgments: judgments}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendRelevanceVectorsMatchesFullRebuild(t *testing.T) {
	log := NewLog(6)
	add := func(query int, judgments map[int]Judgment) {
		t.Helper()
		if _, err := log.AddSession(Session{QueryImage: query, Judgments: judgments}); err != nil {
			t.Fatal(err)
		}
	}
	add(0, map[int]Judgment{0: Relevant, 2: Irrelevant})
	cols := log.RelevanceVectors()

	// Grow the collection and the log in interleaved steps, extending the
	// cached columns each time, and compare against a fresh rebuild.
	add(1, map[int]Judgment{1: Relevant, 2: Relevant})
	cols = log.ExtendRelevanceVectors(cols, 1)
	log.GrowImages(2)
	cols = log.ExtendRelevanceVectors(cols, 2)
	add(7, map[int]Judgment{7: Relevant, 0: Irrelevant, 2: Irrelevant})
	add(3, map[int]Judgment{3: Relevant, 7: Irrelevant})
	cols = log.ExtendRelevanceVectors(cols, 2)

	want := log.RelevanceVectors()
	if len(cols) != len(want) {
		t.Fatalf("extended %d columns, rebuilt %d", len(cols), len(want))
	}
	for i := range want {
		if !cols[i].Equal(want[i], 0) {
			t.Errorf("column %d: extended %v, rebuilt %v", i, cols[i].ToDense(), want[i].ToDense())
		}
	}
}

func TestExtendRelevanceVectorsNoChangeReturnsPrev(t *testing.T) {
	log := NewLog(3)
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{1: Relevant}}); err != nil {
		t.Fatal(err)
	}
	cols := log.RelevanceVectors()
	if got := log.ExtendRelevanceVectors(cols, 1); &got[0] != &cols[0] {
		t.Error("unchanged log did not return the previous column view")
	}
}

func TestExtendRelevanceVectorsDoesNotMutatePrev(t *testing.T) {
	log := NewLog(3)
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{0: Relevant, 1: Irrelevant}}); err != nil {
		t.Fatal(err)
	}
	cols := log.RelevanceVectors()
	dense := make([]linalg.Vector, len(cols))
	for i, v := range cols {
		dense[i] = v.ToDense()
	}
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{0: Irrelevant, 2: Relevant}}); err != nil {
		t.Fatal(err)
	}
	_ = log.ExtendRelevanceVectors(cols, 1)
	for i, v := range cols {
		if v.Dim != 1 || !v.ToDense().Equal(dense[i], 0) {
			t.Errorf("column %d of the previous view changed: %v", i, v.ToDense())
		}
	}
}

// An extension allocates column headers by the slab, not by the image.
func TestExtendRelevanceVectorsAllocatesHeadersInSlabs(t *testing.T) {
	const images = 64 * headerSlab
	log := NewLog(images)
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{1: Relevant}}); err != nil {
		t.Fatal(err)
	}
	cols := log.RelevanceVectors()
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{1: Irrelevant, 7: Relevant, 9: Relevant}}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() { log.ExtendRelevanceVectors(cols, 1) })
	// 64 slabs, the column slice, and the new session's image list and
	// three copy-on-write appends.
	if limit := float64(images/headerSlab + 8); allocs > limit {
		t.Errorf("extending %d columns by one 3-judgment session allocates %v times, want at most %v", images, allocs, limit)
	}
}

func TestExtendRelevanceVectorsStalePanics(t *testing.T) {
	log := NewLog(2)
	defer func() {
		if recover() == nil {
			t.Fatal("stale column view did not panic")
		}
	}()
	log.ExtendRelevanceVectors(nil, 5)
}

// TestExtendIndexMatchesRelevanceVectors holds the log index kept incrementally —
// extended after one commit, after several, across GrowImages, and not at
// all — to RelevanceVectors() after every extension: the index
// kernel.NewSparseSVIndex inverts them to, and the same column, coverage and
// session count for every image. Every index an earlier extension returned
// must still read what it read then: extensions write past the end of the
// storage they share.
func TestExtendIndexMatchesRelevanceVectors(t *testing.T) {
	rng := linalg.NewRNG(30)
	log := NewLog(40)
	ix := log.ExtendIndex(nil)
	if ix == nil || ix.Dim() != 0 || ix.Sessions() != nil {
		t.Fatalf("a log of no session: index %+v, want an empty one", ix)
	}
	type kept struct {
		ix   *kernel.LogIndex
		cols []*sparse.Vector
	}
	var earlier []kept
	for step := 0; step < 30; step++ {
		if step%7 == 3 {
			log.GrowImages(1 + rng.Intn(20))
		}
		for commits := rng.Intn(4); commits > 0; commits-- {
			judged := make(map[int]Judgment)
			for n := 1 + rng.Intn(12); n > 0; n-- {
				judged[rng.Intn(log.NumImages())] = Judgment(2*rng.Intn(2) - 1)
			}
			mustAdd(t, log, judged)
		}
		prev := ix
		ix = log.ExtendIndex(prev)
		cols := log.RelevanceVectors()
		if err := sameIndex(ix, cols); err != nil {
			t.Fatalf("step %d: the index extended to %d sessions: %v", step, log.NumSessions(), err)
		}
		if prev.Dim() == log.NumSessions() && ix != prev {
			t.Fatalf("step %d: no session added, and the previous index was not returned", step)
		}
		earlier = append(earlier, kept{ix, cols})
	}
	for i, k := range earlier {
		if err := sameIndex(k.ix, k.cols); err != nil {
			t.Errorf("the index of step %d changed after later extensions: %v", i, err)
		}
	}
}

// sameIndex reports how ix differs from the log whose relevance columns are
// cols: its session count, its index by session (kernel.NewSparseSVIndex's
// inversion of the columns), and each image's column and coverage.
func sameIndex(ix *kernel.LogIndex, cols []*sparse.Vector) error {
	if ix.Dim() != cols[0].Dim || !reflect.DeepEqual(ix.Sessions(), kernel.NewSparseSVIndex(kernel.SparsePoints(cols))) {
		return fmt.Errorf("%d sessions, the log %d, or another session index", ix.Dim(), cols[0].Dim)
	}
	for i, col := range cols {
		got := ix.Column(i)
		if got.Dim != col.Dim || !slices.Equal(got.Entries, col.Entries) || ix.Covered(i) != (len(col.Entries) > 0) {
			return fmt.Errorf("image %d: column %+v (covered %v), want %+v", i, got, ix.Covered(i), col)
		}
	}
	return nil
}

func TestExtendIndexStalePanics(t *testing.T) {
	ahead := NewLog(3)
	mustAdd(t, ahead, map[int]Judgment{0: Relevant})
	mustAdd(t, ahead, map[int]Judgment{1: Irrelevant})
	ix := ahead.ExtendIndex(nil)
	log := NewLog(3)
	mustAdd(t, log, map[int]Judgment{2: Relevant})
	defer func() {
		if recover() == nil {
			t.Fatal("an index of 2 sessions extended to a log of 1 without a panic")
		}
	}()
	log.ExtendIndex(ix)
}

func TestCloneIsolatesSessionList(t *testing.T) {
	log := NewLog(4)
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{0: Relevant}}); err != nil {
		t.Fatal(err)
	}
	snap := log.Clone()
	log.GrowImages(3)
	if _, err := log.AddSession(Session{Judgments: map[int]Judgment{5: Relevant}}); err != nil {
		t.Fatal(err)
	}
	if snap.NumImages() != 4 || snap.NumSessions() != 1 {
		t.Errorf("clone changed: %d images, %d sessions", snap.NumImages(), snap.NumSessions())
	}
	if log.NumImages() != 7 || log.NumSessions() != 2 {
		t.Errorf("original = %d images, %d sessions", log.NumImages(), log.NumSessions())
	}
}
