package retrieval_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"lrfcsvm/internal/faultinject"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/storage"
)

// cells are cbirserver's ways to wire an engine: no journal, or one under an
// -fsync policy, with the snapshotter compacting it or not.
var cells = []string{"nojournal", "off", "off+snapshotter", "always", "always+snapshotter"}

// regimes are the edges the driver must keep reaching — what the scripted
// suites it replaced were written for, and the log index's — each pinned to
// a seed and a cell that must keep passing through it.
var regimes = map[string]struct {
	seed uint64
	cell string
}{
	"gamma-threshold":   {2, "nojournal"},          // an ingestion takes the collection past the 64 points the RBF bandwidth estimate samples
	"shard-boundary":    {3, "off+snapshotter"},    // an ingestion opens the second 2,048-row shard
	"torn-final-record": {1, "always+snapshotter"}, // a recovery truncates the torn final record of the journal
	// The log index's edges, each met by a log scheme's refine that answers:
	"log-of-no-session":    {19, "nojournal"},      // no session committed yet
	"images-past-the-log":  {2, "always"},          // images ingested since the index was last read, past every judged one
	"extends-a-used-index": {4, "off+snapshotter"}, // sessions committed since an earlier refine read the index
}

// TestEngineMatchesModel drives the engine and the model (model_test.go)
// through the same random operations — ingestions, queries, sessions,
// refinements under every scheme, commits, snapshots, crashes and recoveries,
// cancelled contexts, journal faults, Close — and fails at the first outcome
// or state they disagree on, printing the operations that led there and the
// fewest of its steps found to fail the same way. A seed and a cell are all
// that replays a subtest:
// go test -run 'TestEngineMatchesModel/^seed=7$/^off$' ./internal/retrieval
func TestEngineMatchesModel(t *testing.T) {
	seeds := uint64(32)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, c := range cells {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, c), func(t *testing.T) { runDriver(t, seed, c) })
		}
	}
	for name, r := range regimes {
		t.Run(name, func(t *testing.T) {
			if seen := runDriver(t, r.seed, r.cell); !seen[name] {
				t.Errorf("seed %d on %s no longer reaches its regime, only %v", r.seed, r.cell, seen)
			}
		})
	}
}

// pair is one feedback session on both sides.
type pair struct {
	e *retrieval.Session
	m *modelSession
}

type driver struct {
	rng                    *linalg.RNG // the current step's: a step draws the same whichever steps ran before it
	dir                    string
	big                    bool // this seed may grow the collection to the shard boundary
	journaled, snapshotter bool // the cell
	fsync                  storage.FsyncPolicy

	m       model
	e       *retrieval.Engine
	journal *storage.Journal
	snap    *storage.Snapshotter
	faults  *faultinject.Injector

	w      world              // closed and journal as they stand; cancelled is drawn per operation
	broken bool               // the armed fault fails the rollback too: the journal refuses records until a restart
	epoch  int64              // ingestions this engine accepted, plus one
	open   []pair             // the last few sessions started, committed ones among them
	held   *kernel.ShardedSet // the store SnapshotWith returned at the last check
	ops    []string
	seen   map[string]bool // the regimes passed through

	// What this engine's log index has met: whether a refine has read it,
	// and whether images were ingested or sessions committed since the last.
	indexed, ingested, committed bool
}

// runDriver runs a seed's 200 steps on a cell and returns the regimes they
// passed through; on a disagreement it shrinks the steps and fails.
func runDriver(t *testing.T, seed uint64, cell string) map[string]bool {
	all := make([]int, 200)
	for i := range all {
		all[i] = i + 1
	}
	seen, f := drive(t.TempDir(), seed, cell, all)
	if f != nil {
		first := func(msg string) string { line, _, _ := strings.Cut(msg, "\n"); return line }
		steps := shrink(all, func(steps []int) bool {
			_, g := drive(t.TempDir(), seed, cell, steps)
			return g != nil && first(g.msg) == first(f.msg)
		})
		_, g := drive(t.TempDir(), seed, cell, steps)
		t.Fatalf("%s\nafter these operations:\n%s\n\nsteps %v alone fail the same way, in %d operations:\n%s", f.msg, f.ops, steps, strings.Count(g.ops, "\n")+1, g.ops)
	}
	return seen
}

// failure is how a run ends that disagreed: the first disagreement (a panic's
// value, its stack after it) and the operations that led there.
type failure struct{ msg, ops string }

// disagreement is what check panics with, to end the run.
type disagreement string

// shrink is delta debugging over which steps run: it drops ever smaller runs
// of the steps while fails holds without them, and returns the fewest found.
func shrink(steps []int, fails func([]int) bool) []int {
	for n := 2; len(steps) > 1; {
		chunk, dropped := (len(steps)+n-1)/n, false
		for i := 0; i < len(steps) && !dropped; i += chunk {
			rest := slices.Concat(steps[:i], steps[min(i+chunk, len(steps)):])
			if dropped = fails(rest); dropped {
				steps, n = rest, max(n-1, 2)
			}
		}
		if !dropped && n >= len(steps) {
			break
		} else if !dropped {
			n = min(2*n, len(steps))
		}
	}
	return steps
}

// drive runs the given steps of a seed on a cell in dir.
func drive(dir string, seed uint64, cell string, steps []int) (seen map[string]bool, f *failure) {
	d := &driver{rng: linalg.NewRNG(seed), dir: dir, big: seed%8 == 3, seen: map[string]bool{}}
	policy, snapshotter := strings.CutSuffix(cell, "+snapshotter")
	fsync, err := storage.ParseFsyncPolicy(policy) // "nojournal" is no policy
	d.fsync, d.journaled, d.snapshotter = fsync, err == nil, snapshotter
	defer func() { // an engine that panics disagrees too
		if p := recover(); p != nil {
			msg, ok := p.(disagreement)
			if !ok {
				msg = disagreement(fmt.Sprintf("panic: %v\n%s", p, debug.Stack()))
			}
			f = &failure{string(msg), strings.Join(d.ops, "\n")}
		}
	}()
	d.m.rows = d.rows(20 + d.rng.Intn(40))
	for i := d.rng.Intn(12); i > 0; i-- { // the log the server is first started with
		s, _ := d.m.startSession(d.rng.Intn(len(d.m.rows)))
		for j := 2 + d.rng.Intn(6); j > 0; j-- {
			d.m.judge(s, d.rng.Intn(len(d.m.rows)), feedbacklog.Judgment(1-2*d.rng.Intn(2)))
		}
		d.m.commit(world{}, s)
	}
	err = storage.SaveSnapshotSetAt(d.path("snap"), kernel.NewShardedSet(d.m.rows, 0), d.m.log(), 0)
	d.check(err == nil, "%v", err)
	stepSeeds := make([]uint64, 200)
	for i := range stepSeeds {
		stepSeeds[i] = d.rng.Uint64()
	}
	d.start()
	defer d.stop()
	for _, step := range steps {
		d.rng = linalg.NewRNG(stepSeeds[step-1])
		d.step()
		if step%16 == 0 {
			d.checkState()
		}
	}
	d.checkState()
	return d.seen, nil
}

func (d *driver) path(name string) string { return filepath.Join(d.dir, name) }

func (d *driver) logf(format string, args ...any) {
	d.ops = append(d.ops, fmt.Sprintf("%4d  ", len(d.ops))+fmt.Sprintf(format, args...))
}

// check ends the run as a disagreement unless ok.
func (d *driver) check(ok bool, format string, args ...any) {
	if !ok {
		panic(disagreement(fmt.Sprintf(format, args...)))
	}
}

// class is what an outcome is compared as: one of the engine's three named
// errors, wrong, or nil.
func class(err error) error {
	for _, c := range []error{retrieval.ErrEngineClosed, retrieval.ErrJournal, context.Canceled} {
		if errors.Is(err, c) {
			return c
		}
	}
	return wrong[err != nil]
}

// agree logs an operation and compares how it ended on the two sides.
func (d *driver) agree(op string, got, want []retrieval.Result, gotErr, wantErr error) {
	d.logf("%s -> %v", op, class(gotErr))
	d.check(class(gotErr) == class(wantErr), "the engine ends with %v (%v), the model with %v", class(gotErr), gotErr, class(wantErr))
	d.check(len(got) == len(want), "the engine returns %d results, the model %d", len(got), len(want))
	for i := range want {
		same := got[i].Image == want[i].Image && math.Float64bits(got[i].Score) == math.Float64bits(want[i].Score)
		d.check(same, "rank %d: the engine has %+v, the model %+v", i, got[i], want[i])
	}
}

// sameState compares a copy of the state, a snapshot's, with the model's.
func (d *driver) sameState(what string, set *kernel.ShardedSet, log *feedbacklog.Log) {
	d.check(set.Len() == len(d.m.rows) && log.NumSessions() == len(d.m.sessions), "%s holds %d rows and %d sessions, the model %d and %d", what, set.Len(), log.NumSessions(), len(d.m.rows), len(d.m.sessions))
	for i := range set.Len() {
		d.check(slices.Equal(set.Point(i), kernel.Dense(d.m.rows[i])), "%s: row %d is %v, the model's %v", what, i, set.Point(i), d.m.rows[i])
	}
	for i, s := range log.Sessions() {
		want := d.m.sessions[i]
		d.check(s.QueryImage == want.QueryImage && maps.Equal(s.Judgments, want.Judgments), "%s: session %d is %+v, the model's %+v", what, i, s, want)
	}
}

// checkState compares everything the engine shows of its state.
func (d *driver) checkState() {
	n := len(d.m.rows)
	want := retrieval.CollectionStats{Images: n, Dim: len(d.m.rows[0]), Shards: (n + kernel.DefaultShardSize - 1) / kernel.DefaultShardSize, Epoch: d.epoch}
	d.check(d.e.Collection() == want, "Collection() = %+v, the model has %+v", d.e.Collection(), want)
	d.check(d.e.NumLogSessions() == len(d.m.sessions), "NumLogSessions() = %d, the model committed %d", d.e.NumLogSessions(), len(d.m.sessions))
	index := d.e.LogIndex()
	wantCols := d.m.log().RelevanceVectors()
	d.check(index.Dim() == wantCols[0].Dim, "the log index holds %d sessions, the model %d", index.Dim(), wantCols[0].Dim)
	for i, want := range wantCols {
		col := index.Column(i)
		same := col.Dim == want.Dim && slices.Equal(col.Entries, want.Entries) && index.Covered(i) == (len(want.Entries) > 0)
		d.check(same, "the log index has column %+v for image %d (covered %v), RelevanceVectors() of the model's sessions %+v", col, i, index.Covered(i), want)
	}
	wantIndex := kernel.NewSparseSVIndex(kernel.SparsePoints(wantCols))
	d.check(reflect.DeepEqual(index.Sessions(), wantIndex), "the log index by session is not the one the model's sessions invert to")
	// A snapshot is the store: whatever was ingested since, the last
	// check's reads as it did.
	for i := 0; d.held != nil && i < d.held.Len(); i++ {
		d.check(slices.Equal(d.held.Point(i), kernel.Dense(d.m.rows[i])), "row %d of a snapshot taken %d rows ago now reads %v, it was %v", i, n-d.held.Len(), d.held.Point(i), d.m.rows[i])
	}
	set, log := d.e.SnapshotWith(nil)
	d.sameState("SnapshotWith", set, log)
	d.held = set
}

// start brings an engine up as cbirserver does: the snapshot decoded into
// a store, the journal's tail replayed into it, the engine over that store,
// the snapshotter.
func (d *driver) start() {
	set, log, seq, err := storage.LoadSnapshotSetAt(d.path("snap"))
	d.check(err == nil, "%v", err)
	var opts retrieval.Options
	if d.journaled {
		d.faults = faultinject.New(faultinject.Plan{})
		var replay storage.ReplayStats
		d.journal, set, replay, err = storage.OpenJournalOver(d.path("wal"), set, log, storage.JournalOptions{
			Fsync: d.fsync, SnapshotSeq: seq, WrapFile: func(f *os.File) storage.File { return d.faults.Wrap(f) },
		})
		d.check(err == nil, "%v", err)
		d.seen["torn-final-record"] = d.seen["torn-final-record"] || replay.TornTailBytes > 0
		opts.Journal = d.journal
	}
	d.e, err = retrieval.NewEngineOver(set, log, opts)
	d.check(err == nil, "%v", err)
	if d.snapshotter {
		d.snap, err = storage.NewSnapshotter(d.journal, d.e.SnapshotWith, storage.SnapshotterConfig{SnapshotPath: d.path("snap"), Interval: time.Hour})
		d.check(err == nil, "%v", err)
	}
	d.w, d.broken, d.open, d.epoch, d.held = world{}, false, nil, 1, nil
	d.indexed, d.ingested, d.committed = false, false, false
	d.checkState()
}

func (d *driver) stop() {
	if d.snap != nil {
		d.snap.Close()
	}
	if d.journal != nil {
		d.journal.Close()
	}
}

// rows draws descriptors from four clusters along the first axis.
func (d *driver) rows(n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = linalg.Vector{float64(4*d.rng.Intn(4)) + d.rng.Normal(0, 0.8), d.rng.Normal(0, 0.8), d.rng.Normal(0, 0.8)}
	}
	return out
}

// image draws an image, now and then one just outside the collection.
func (d *driver) image() int { return d.rng.Intn(len(d.m.rows)+3) - 1 }

// k draws a result-list length: a page, one time in ten the whole ranking and
// beyond.
func (d *driver) k() int {
	return []int{1 + d.rng.Intn(12), len(d.m.rows) + d.rng.Intn(3)}[d.rng.Intn(10)/9]
}

// ctx draws an operation's context, now and then a cancelled one, and the
// world the model meets with it.
func (d *driver) ctx() (context.Context, world) {
	ctx, w := context.Background(), d.w
	if d.rng.Bool(0.04) {
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		ctx, w.cancelled = cancelled, context.Canceled
	}
	return ctx, w
}

func (d *driver) startSession() {
	q := d.image()
	ms, want := d.m.startSession(q)
	es, err := d.e.StartSession(q)
	d.agree(fmt.Sprintf("StartSession(%d)", q), nil, nil, err, want)
	if want == nil {
		d.open = append(d.open, pair{es, ms})
		d.open = d.open[max(0, len(d.open)-6):]
	}
}

// session picks one of the open sessions, starting one if there is none.
func (d *driver) session() pair {
	for len(d.open) == 0 {
		d.startSession()
	}
	return d.open[d.rng.Intn(len(d.open))]
}

func (d *driver) step() {
	switch r := d.rng.Intn(100); {
	case r < 3, r < 30 && d.w.closed != nil:
		d.crash()
	case r < 6:
		d.snapshot()
	case r < 9:
		d.arm()
	case r < 10:
		d.e.Close()
		d.w.closed = retrieval.ErrEngineClosed
		d.logf("Close")
	case r < 25:
		d.ingest()
	case r < 40:
		q, k := d.image(), d.k()
		ctx, w := d.ctx()
		want, wantErr := d.m.rank(w, retrieval.SchemeEuclidean, &modelSession{query: q}, k)
		got, err := d.e.InitialQuery(ctx, q, k)
		d.agree(fmt.Sprintf("InitialQuery(%d, k=%d)", q, k), got, want, err, wantErr)
	case r < 47:
		d.startSession()
	case r < 68:
		p := d.session()
		for i := 1 + d.rng.Intn(5); i > 0; i-- {
			image, j := d.image(), feedbacklog.Judgment(1-2*d.rng.Intn(2)) // relevant or not
			d.agree(fmt.Sprintf("Judge(query %d: image %d is %d)", p.m.query, image, j), nil, nil, p.e.Judge(image, j > 0), d.m.judge(p.m, image, j))
		}
		d.check(p.e.NumJudgments() == len(p.m.judgments), "the session holds %d judgments, the model's %d", p.e.NumJudgments(), len(p.m.judgments))
	case r < 88:
		p, k := d.session(), d.k()
		kinds := []retrieval.SchemeKind{retrieval.SchemeEuclidean, retrieval.SchemeRFSVM, retrieval.SchemeLRF2SVMs, retrieval.SchemeLRFCSVM, "no-such-scheme"}
		kind := kinds[d.rng.Intn(29)/7] // the last one time in 29
		ctx, w := d.ctx()
		want, wantErr := d.m.rank(w, kind, p.m, k)
		got, err := p.e.Refine(ctx, kind, k)
		d.agree(fmt.Sprintf("Refine(query %d, %d judged, %s, k=%d)", p.m.query, len(p.m.judgments), kind, k), got, want, err, wantErr)
		d.refined(kind, len(p.m.judgments) > 0, err)
	default:
		d.commit()
	}
}

func (d *driver) commit() {
	p := d.session()
	ctx, w := d.ctx()
	want := d.m.commit(w, p.m)
	d.agree(fmt.Sprintf("Commit(query %d, %d judged)", p.m.query, len(p.m.judgments)), nil, nil, p.e.Commit(ctx), want)
	d.committed = d.committed || want == nil
	d.mutated(want)
	if want == nil && d.rng.Bool(0.7) { // the rest stay open a while: to be judged and committed again
		d.open = slices.DeleteFunc(d.open, func(o pair) bool { return o == p })
	}
}

// refined follows a refine: a log scheme's answer meets the regimes of the
// log index, and every refine the engine does not refuse for want of a
// judgment reads the index.
func (d *driver) refined(kind retrieval.SchemeKind, judged bool, err error) {
	if err == nil && (kind == retrieval.SchemeLRF2SVMs || kind == retrieval.SchemeLRFCSVM) {
		last := -1 // the highest image a session judged
		for _, s := range d.m.sessions {
			for img := range s.Judgments {
				last = max(last, img)
			}
		}
		d.seen["log-of-no-session"] = d.seen["log-of-no-session"] || len(d.m.sessions) == 0
		d.seen["images-past-the-log"] = d.seen["images-past-the-log"] || d.indexed && d.ingested && len(d.m.rows) > last+1
		d.seen["extends-a-used-index"] = d.seen["extends-a-used-index"] || d.indexed && d.committed
	}
	if judged || kind == retrieval.SchemeEuclidean {
		d.indexed, d.ingested, d.committed = true, false, false
	}
}

// mutated follows a commit or an ingestion: a fault is spent by the operation
// it failed unless it poisoned the journal, and a refusal changed no state.
func (d *driver) mutated(outcome error) {
	if errors.Is(outcome, retrieval.ErrJournal) && !d.broken {
		d.w.journal = nil
	}
	if outcome != nil {
		d.checkState()
	}
}

func (d *driver) ingest() {
	n := len(d.m.rows)
	rows, what := d.rows(1+d.rng.Intn(5)), "rows"
	switch r := d.rng.Intn(24); {
	case r == 0:
		rows = nil
	case r == 1:
		rows[0], what = rows[0][:2], "rows, one ragged"
	case r == 2:
		rows[0][d.rng.Intn(3)], what = []float64{math.NaN(), math.Inf(-1), 1e200}[d.rng.Intn(3)], "rows, one not finite"
	case r < 12 && d.big && n < 2000:
		rows, what = d.rows(kernel.DefaultShardSize-1-d.rng.Intn(2)-n), "rows, to the brink of the shard"
	case r < 7 && n < 60:
		rows, what = d.rows(64-d.rng.Intn(3)-n), "rows, to the brink of the 64-point sample"
	}
	ctx, w := d.ctx()
	wantFirst, want := d.m.addImages(w, rows)
	first, err := d.e.AddImages(ctx, rows)
	d.agree(fmt.Sprintf("AddImages(%d %s)", len(rows), what), nil, nil, err, want)
	if want == nil {
		d.check(first == wantFirst, "the engine's first new image is %d, the model's %d", first, wantFirst)
		d.epoch++
		d.ingested = true
		d.seen["gamma-threshold"] = d.seen["gamma-threshold"] || n <= 64 && len(d.m.rows) > 64
		d.seen["shard-boundary"] = d.seen["shard-boundary"] || n <= kernel.DefaultShardSize && len(d.m.rows) > kernel.DefaultShardSize
	}
	d.mutated(want)
	for _, row := range rows { // the caller's rows are the caller's again
		row[0] = 1e9
	}
}

// snapshot persists the state the way the cell does — the snapshotter's pass,
// which compacts the journal, or SnapshotWith and SaveSnapshotSetAt beside a
// journal that keeps every record — and reads the file back.
func (d *driver) snapshot() {
	var err error
	if d.snap != nil {
		err = d.snap.SnapshotNow()
	} else {
		var mark uint64
		set, log := d.e.SnapshotWith(func() {
			if d.journal != nil {
				mark = d.journal.LastSeq()
			}
		})
		err = storage.SaveSnapshotSetAt(d.path("snap"), set, log, mark)
	}
	d.logf("snapshot -> %v", err)
	d.check(err == nil, "%v", err)
	set, log, _, err := storage.LoadSnapshotSetAt(d.path("snap"))
	d.check(err == nil, "%v", err)
	d.sameState("the snapshot file", set, log)
}

// arm makes the journal fail the next record it is handed: a write that
// fails, one that tears, one whose rollback fails too — after which the
// journal refuses every record — or, where appends sync, an fsync that fails.
// A tear lands anywhere in the record, its last byte and past it included:
// a whole record whose rollback failed is zeroed, so replay drops it too.
func (d *driver) arm() {
	if !d.journaled || d.w.journal != nil {
		return
	}
	torn := map[int]int{1: 1 + d.rng.Intn(160)}
	plans := []faultinject.Plan{{FailWrites: []int{1}}, {TornWrites: torn}, {TornWrites: torn, FailTruncates: []int{1}}, {FailSyncFrom: 1, FailSyncCount: 1}}
	if d.fsync != storage.FsyncAlways {
		plans = plans[:3]
	}
	plan := plans[d.rng.Intn(len(plans))]
	d.faults.SetPlan(plan)
	d.w.journal, d.broken = retrieval.ErrJournal, plan.FailTruncates != nil
	d.logf("arm the journal with %+v", plan)
}

// crash ends the engine's lifetime and starts the next from what is on disk.
// Without a journal that is a restart from a snapshot taken now. With one it
// is a crash: the journal file as it stands, after whatever the faults tore,
// and more often than not one more mutation, three times in four dying inside
// its record — which makes it a mutation nobody was told of, that never was.
func (d *driver) crash() {
	cut := int64(-1)
	if !d.journaled {
		d.snapshot()
	} else if d.w.closed == nil && d.w.journal == nil && d.rng.Bool(0.7) {
		before, undo := d.journal.Stats().Bytes, d.m
		if d.rng.Bool(0.5) {
			d.commit()
		} else {
			d.ingest()
		}
		if grew := d.journal.Stats().Bytes - before; grew > 0 && d.rng.Bool(0.75) {
			cut, d.m = before+1+int64(d.rng.Intn(int(grew)-1)), undo
		}
	}
	d.stop()
	if cut >= 0 {
		err := os.Truncate(d.path("wal"), cut)
		d.check(err == nil, "%v", err)
	}
	d.logf("crash, and recover from the snapshot and the journal (cut at %d)", cut)
	d.start()
}
