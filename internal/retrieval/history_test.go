package retrieval_test

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/storage"
)

// TestConcurrentHistoriesMatchModel runs random ingestions, commits, queries,
// refines and reads of the log on several goroutines against one journaled
// engine, stamps each operation at its call and its return, and holds every
// read to the model (model_test.go) at one prefix of the journal's mutation
// order that lies in the read's window: after every mutation that returned
// before the read was called, and after no mutation called after it
// returned. The collection and the log are taken from the same prefix, so a
// read that ranks the collection of one state with the log of another fails.
// Seeds run until the budget is spent. A failure prints the history and the
// fewest of its steps found to fail the same way; a seed fixes the
// operations, not how they interleave:
// go test -run 'TestConcurrentHistoriesMatchModel/^seed=7$' ./internal/retrieval
func TestConcurrentHistoriesMatchModel(t *testing.T) {
	budget := 2 * time.Second
	if testing.Short() {
		budget /= 4
	}
	start := time.Now()
	for seed := uint64(1); seed <= 64 && (seed == 1 || time.Since(start) < budget); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runHistory(t, seed) })
	}
}

// historySteps is how many steps a history runs, dealt in turn to
// historyWorkers goroutines.
const historySteps, historyWorkers = 120, 3

func runHistory(t *testing.T, seed uint64) {
	all := make([]int, historySteps)
	for i := range all {
		all[i] = i + 1
	}
	f := play(t.TempDir(), seed, all)
	if f == nil {
		return
	}
	first := func(msg string) string { line, _, _ := strings.Cut(msg, "\n"); return line }
	last := f // the failure of the fewest steps yet
	steps := shrink(all, func(steps []int) bool {
		for range 3 { // an interleaving may not come again
			if g := play(t.TempDir(), seed, steps); g != nil && first(g.msg) == first(f.msg) {
				last = g
				return true
			}
		}
		return false
	})
	t.Fatalf("%s\n\nsteps %v of %d failed the same way, in this history (call and return stamps; a mutation's place in the journal):\n%s\n%s",
		f.msg, steps, historySteps, last.msg, last.ops)
}

// historyOp is one operation of a history as a goroutine ran it.
type historyOp struct {
	what      string
	call, ret int64 // stamps of one clock shared by every goroutine
	err       error
	pos       int // a mutation's place in the journal's order, -1 until placed
	ingested  []linalg.Vector
	first     int // AddImages' answer
	committed *modelSession
	read      func(m *model) bool // a read: whether the model answers as the engine did
}

// orderedJournal journals into a storage.Journal and keeps the order of its
// records. Each append then parks a while, as an fsync would, with the
// engine's mutation lock held: reads that take it wait, and mutations queue.
// Then it wakes the watcher, whose reads land while the mutation applies.
// The engine serializes the calls, so the fields need no lock of their own.
type orderedJournal struct {
	journal  *storage.Journal
	rng      *linalg.RNG
	order    []any // the batch ingested or the session committed, per record
	applying chan struct{}
}

func (j *orderedJournal) AppendSession(s feedbacklog.Session) error {
	if err := j.journal.AppendSession(s); err != nil {
		return err
	}
	j.appended(feedbacklog.Session{QueryImage: s.QueryImage, Judgments: maps.Clone(s.Judgments)})
	return nil
}

func (j *orderedJournal) AppendImages(rows []linalg.Vector) error {
	if err := j.journal.AppendImages(rows); err != nil {
		return err
	}
	j.appended(rows)
	return nil
}

func (j *orderedJournal) appended(record any) {
	j.order = append(j.order, record)
	time.Sleep(time.Duration(j.rng.Intn(500)) * time.Microsecond)
	select {
	case j.applying <- struct{}{}:
	default: // the watcher is reading still
	}
}

// history is one run: the model's initial state, the engine, and what each
// goroutine did.
type history struct {
	initial model
	e       *retrieval.Engine
	clock   atomic.Int64
	ops     [historyWorkers + 1][]*historyOp // the workers', then the watcher's
	judging [historyWorkers]error            // a worker's first failed StartSession or Judge
}

// historyRows draws descriptors from four clusters along the first axis.
func historyRows(rng *linalg.RNG, n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = linalg.Vector{float64(4*rng.Intn(4)) + rng.Normal(0, 0.8), rng.Normal(0, 0.8), rng.Normal(0, 0.8)}
	}
	return out
}

// play runs the given steps of a seed's history against an engine journaled
// in dir, then checks it.
func play(dir string, seed uint64, steps []int) *failure {
	rng := linalg.NewRNG(seed)
	h := &history{}
	h.initial.rows = historyRows(rng, 30+rng.Intn(30))
	for i := rng.Intn(8); i > 0; i-- {
		s, _ := h.initial.startSession(rng.Intn(len(h.initial.rows)))
		for j := 2 + rng.Intn(5); j > 0; j-- {
			h.initial.judge(s, rng.Intn(len(h.initial.rows)), feedbacklog.Judgment(1-2*rng.Intn(2)))
		}
		h.initial.commit(world{}, s)
	}
	stepSeeds := make([]uint64, historySteps)
	for i := range stepSeeds {
		stepSeeds[i] = rng.Uint64()
	}
	path := filepath.Join(dir, "wal")
	journal, set, _, err := storage.OpenJournalOver(path, kernel.NewShardedSet(h.initial.rows, 0), h.initial.log(), storage.JournalOptions{Fsync: storage.FsyncOff})
	if err != nil {
		return &failure{msg: err.Error()}
	}
	sink := &orderedJournal{journal: journal, rng: linalg.NewRNG(seed + 1), applying: make(chan struct{})}
	if h.e, err = retrieval.NewEngineOver(set, h.initial.log(), retrieval.Options{Journal: sink}); err != nil {
		journal.Close()
		return &failure{msg: err.Error()}
	}
	var wg sync.WaitGroup
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() { // the watcher
		defer close(watched)
		w := &historyWorker{h: h, g: historyWorkers}
		for {
			select {
			case <-stop:
				return
			case <-sink.applying:
				w.readLog(32)
			}
		}
	}()
	for g := range historyWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &historyWorker{h: h, g: g}
			for _, step := range steps {
				if (step-1)%historyWorkers == g {
					w.step(linalg.NewRNG(stepSeeds[step-1]))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-watched
	if err := journal.Close(); err != nil {
		return &failure{msg: err.Error()}
	}
	return h.check(sink.order, path)
}

// historyWorker is one goroutine of a history, with the session it has open.
type historyWorker struct {
	h       *history
	g       int
	session *retrieval.Session
	m       *modelSession
}

// do runs an operation between two stamps and records it.
func (w *historyWorker) do(op *historyOp, run func() error) {
	op.call = w.h.clock.Add(1)
	op.err = run()
	op.ret = w.h.clock.Add(1)
	w.h.ops[w.g] = append(w.h.ops[w.g], op)
}

// judged adds judgments on images of the collection as it stands to the
// worker's open session, starting one if there is none, and reports whether
// there is one.
func (w *historyWorker) judged(rng *linalg.RNG) bool {
	n := w.h.e.NumImages()
	if w.session == nil {
		q := rng.Intn(n)
		s, err := w.h.e.StartSession(q)
		if err != nil {
			w.h.judging[w.g] = cmp.Or(w.h.judging[w.g], err)
			return false
		}
		w.session, w.m = s, &modelSession{query: q, judgments: map[int]feedbacklog.Judgment{}}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		image, j := rng.Intn(n), feedbacklog.Judgment(1-2*rng.Intn(2))
		w.h.judging[w.g] = cmp.Or(w.h.judging[w.g], w.session.Judge(image, j > 0))
		w.m.judgments[image] = j
	}
	return true
}

func (w *historyWorker) step(rng *linalg.RNG) {
	ctx, e := context.Background(), w.h.e
	k := []int{1 + rng.Intn(12), 200}[rng.Intn(8)/7]
	switch r := rng.Intn(100); {
	case r < 15:
		rows := historyRows(rng, 1+rng.Intn(3))
		op := &historyOp{what: fmt.Sprintf("AddImages(%d rows)", len(rows)), ingested: rows, pos: -1}
		w.do(op, func() (err error) { op.first, err = e.AddImages(ctx, rows); return err })
	case r < 30:
		if !w.judged(rng) {
			return
		}
		op := &historyOp{what: fmt.Sprintf("Commit(query %d, %d judged)", w.m.query, len(w.m.judgments)), committed: w.m, pos: -1}
		w.do(op, func() error { return w.session.Commit(ctx) })
		w.session, w.m = nil, nil
	case r < 45:
		q := rng.Intn(e.NumImages())
		var got []retrieval.Result
		op := &historyOp{what: fmt.Sprintf("InitialQuery(%d, k=%d)", q, k)}
		op.read = func(m *model) bool {
			want, err := m.rank(world{}, retrieval.SchemeEuclidean, &modelSession{query: q}, k)
			return err == nil && sameResults(got, want)
		}
		w.do(op, func() (err error) { got, err = e.InitialQuery(ctx, q, k); return err })
	case r < 80:
		if !w.judged(rng) {
			return
		}
		kind := []retrieval.SchemeKind{retrieval.SchemeEuclidean, retrieval.SchemeRFSVM, retrieval.SchemeLRF2SVMs, retrieval.SchemeLRFCSVM}[rng.Intn(4)]
		s := &modelSession{query: w.m.query, judgments: maps.Clone(w.m.judgments)}
		var got []retrieval.Result
		op := &historyOp{what: fmt.Sprintf("Refine(query %d, %d judged, %s, k=%d)", s.query, len(s.judgments), kind, k)}
		op.read = func(m *model) bool {
			for image := range s.judgments {
				if !m.inRange(image) { // judged on an ingestion after this state
					return false
				}
			}
			want, err := m.rank(world{}, kind, s, k)
			return err == nil && sameResults(got, want)
		}
		w.do(op, func() (err error) { got, err = w.session.Refine(ctx, kind, k); return err })
	default:
		w.readLog(8)
		var stats retrieval.CollectionStats
		op := &historyOp{what: "Collection()"}
		op.read = func(m *model) bool { return stats.Images == len(m.rows) }
		w.do(op, func() error { stats = e.Collection(); return nil })
		var sessions int
		op = &historyOp{what: "NumLogSessions()"}
		op.read = func(m *model) bool { return sessions == len(m.sessions) }
		w.do(op, func() error { sessions = e.NumLogSessions(); return nil })
	}
}

// readLog reads the log and its index, each time of one epoch, times times.
func (w *historyWorker) readLog(times int) {
	for range times {
		var images, sessions, indexed int
		op := &historyOp{what: "LogIndex()"}
		op.read = func(m *model) bool {
			return images == len(m.rows) && sessions == len(m.sessions) && indexed == len(m.sessions)
		}
		w.do(op, func() error {
			log, index := w.h.e.LogIndex()
			images, sessions, indexed = log.NumImages(), log.NumSessions(), index.Dim()
			op.what = fmt.Sprintf("LogIndex() -> %d images, %d sessions, an index of %d", images, sessions, indexed)
			return nil
		})
	}
}

// sameResults is whether two rankings agree image for image and bit for bit.
func sameResults(got, want []retrieval.Result) bool {
	return slices.EqualFunc(got, want, func(a, b retrieval.Result) bool {
		return a.Image == b.Image && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	})
}

// check places every mutation in the journal's order, builds the model at
// each prefix of it, and holds every read to one prefix in its window and
// the journal file to the last.
func (h *history) check(order []any, path string) *failure {
	var ops []*historyOp
	for _, g := range h.ops {
		ops = append(ops, g...)
	}
	slices.SortFunc(ops, func(a, b *historyOp) int { return int(a.call - b.call) })
	var lines []string
	fail := func(format string, args ...any) *failure {
		for _, op := range ops {
			line := fmt.Sprintf("%5d %5d  %s", op.call, op.ret, op.what)
			if op.read == nil {
				line += fmt.Sprintf(": record %d", op.pos)
			}
			if op.err != nil {
				line += fmt.Sprintf(" -> %v", op.err)
			}
			lines = append(lines, line)
		}
		return &failure{fmt.Sprintf(format, args...), strings.Join(lines, "\n")}
	}
	for _, err := range h.judging {
		if err != nil {
			return fail("a session in range was refused: %v", err)
		}
	}
	// prefixes[p] is the model after the first p records.
	prefixes := []model{h.initial}
	placed := 0
	for p, rec := range order {
		m := prefixes[p]
		var op *historyOp
		for _, o := range ops {
			switch rec := rec.(type) {
			case []linalg.Vector:
				if o.pos < 0 && o.ingested != nil && &o.ingested[0] == &rec[0] {
					op = o
				}
			case feedbacklog.Session:
				if o.pos < 0 && o.committed != nil && o.committed.query == rec.QueryImage && maps.Equal(o.committed.judgments, rec.Judgments) {
					op = o
				}
			}
			if op != nil {
				break
			}
		}
		if op == nil {
			return fail("journal record %d is no operation's", p)
		}
		op.pos, placed = p, placed+1
		if op.ingested != nil {
			if op.first != len(m.rows) {
				return fail("%s answered %d, the model %d", op.what, op.first, len(m.rows))
			}
			m.rows = append(slices.Clip(m.rows), op.ingested...)
		} else {
			m.sessions = append(slices.Clip(m.sessions), feedbacklog.Session{QueryImage: op.committed.query, Judgments: op.committed.judgments})
		}
		prefixes = append(prefixes, m)
	}
	mutations := 0
	for _, op := range ops {
		if op.read == nil {
			mutations++
		}
		if op.err != nil {
			return fail("%s failed: %v", op.what, op.err)
		}
	}
	if mutations != placed {
		return fail("%d mutations returned, the journal holds %d records", mutations, placed)
	}
	for _, r := range ops {
		if r.read == nil {
			continue
		}
		lo, hi := 0, len(order)
		for _, m := range ops {
			if m.read == nil && m.ret < r.call {
				lo = max(lo, m.pos+1)
			}
			if m.read == nil && m.call > r.ret {
				hi = min(hi, m.pos)
			}
		}
		matched := false
		for p := lo; p <= hi && !matched; p++ {
			matched = r.read(&prefixes[p])
		}
		if !matched {
			what, _, _ := strings.Cut(r.what, "(")
			return fail("%s answers as the model at no prefix of the journal in its window\n%s, stamped %d to %d, may read records [0,%d) to [0,%d)", what, r.what, r.call, r.ret, lo, hi)
		}
	}
	// The journal replays to the last prefix, so its order is the one above.
	last := prefixes[len(prefixes)-1]
	replay := h.initial.log()
	journal, set, _, err := storage.OpenJournalOver(path, kernel.NewShardedSet(h.initial.rows, 0), replay, storage.JournalOptions{Fsync: storage.FsyncOff})
	if err != nil {
		return fail("%v", err)
	}
	journal.Close()
	same := set.Len() == len(last.rows) && replay.NumSessions() == len(last.sessions)
	for i := 0; same && i < set.Len(); i++ {
		same = slices.Equal(set.Point(i), kernel.Dense(last.rows[i]))
	}
	for i, s := range replay.Sessions() {
		same = same && s.QueryImage == last.sessions[i].QueryImage && maps.Equal(s.Judgments, last.sessions[i].Judgments)
	}
	if !same {
		return fail("the journal replays to %d rows and %d sessions that are not the model's %d and %d", set.Len(), replay.NumSessions(), len(last.rows), len(last.sessions))
	}
	return nil
}
