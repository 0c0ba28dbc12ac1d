package storage

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"lrfcsvm/internal/faultinject"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

// The fault-injection wrapper must keep satisfying the journal's file
// surface; a drift in either interface fails compilation here.
var _ File = (*faultinject.File)(nil)

// TestJournalMatchesModel drives a journal and the model
// (journal_model_test.go) through the same random operations — appends,
// syncs, compactions behind a snapshot, a fault armed on the next append,
// and crashes that leave the file in each shape an interrupted append, a
// power loss or a damaged disk can, each followed by a reopen — and fails at
// the first answer, replay or state they disagree on, printing the
// operations that led there and the fewest of its steps found to fail the
// same way. A seed and a cell replay a subtest:
// go test -run 'TestJournalMatchesModel/^seed=7$/^off$' ./internal/storage
//
// The cells are the fsync policies off and always; interval is left out
// because its background syncs would make the fault indices racy.
func TestJournalMatchesModel(t *testing.T) {
	seeds := uint64(48)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, cell := range []string{"off", "always"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, cell), func(t *testing.T) { runJournalDriver(t, seed, cell) })
		}
	}
}

// journalPin runs a seed on a cell and fails unless it passes through every
// regime named: what a scripted test the driver replaced was written for.
func journalPin(t *testing.T, seed uint64, cell string, regimes ...string) {
	t.Helper()
	seen := runJournalDriver(t, seed, cell)
	for _, r := range regimes {
		if !seen[r] {
			t.Errorf("seed %d on %s no longer reaches %s, only %v", seed, cell, r, slices.Sorted(maps.Keys(seen)))
		}
	}
}

// journalSteps is how many operations a seed draws.
const journalSteps = 80

// runJournalDriver runs a seed's steps on a cell and returns the regimes
// they passed through; on a disagreement it shrinks the steps and fails.
func runJournalDriver(t *testing.T, seed uint64, cell string) map[string]bool {
	all := make([]int, journalSteps)
	for i := range all {
		all[i] = i + 1
	}
	seen, f := driveJournal(t.TempDir(), seed, cell, all)
	if f != nil {
		first := func(msg string) string { line, _, _ := strings.Cut(msg, "\n"); return line }
		steps := shrinkSteps(all, func(steps []int) bool {
			_, g := driveJournal(t.TempDir(), seed, cell, steps)
			return g != nil && first(g.msg) == first(f.msg)
		})
		_, g := driveJournal(t.TempDir(), seed, cell, steps)
		t.Fatalf("%s\nafter these operations:\n%s\n\nsteps %v alone fail the same way, in %d operations:\n%s", f.msg, f.ops, steps, strings.Count(g.ops, "\n")+1, g.ops)
	}
	return seen
}

// shrinkSteps is delta debugging over which steps run: it drops ever smaller
// runs of the steps while fails holds without them, and returns the fewest
// found.
func shrinkSteps(steps []int, fails func([]int) bool) []int {
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

// journalFailure is how a run ends that disagreed: the first disagreement
// and the operations that led there.
type journalFailure struct{ msg, ops string }

// journalDisagreement is what check panics with, to end the run.
type journalDisagreement string

type journalDriver struct {
	rng       *linalg.RNG // the current step's: a step draws the same whichever steps ran before it
	path      string
	always    bool // the cell
	m         journalModel
	j         *Journal
	faults    *faultinject.Injector
	armed     *faultinject.Plan // the fault armed on the next append
	compacted bool              // the last operation was a compaction that rewrote the file
	poisoned  bool              // a broken journal refused an append since the last reopen
	ops       []string
	seen      map[string]bool
}

// driveJournal runs the given steps of a seed on a cell in dir, then crashes
// once more, so every run ends with a replay checked.
func driveJournal(dir string, seed uint64, cell string, steps []int) (seen map[string]bool, f *journalFailure) {
	d := &journalDriver{rng: linalg.NewRNG(seed), path: filepath.Join(dir, "engine.wal"), always: cell == "always", seen: map[string]bool{}}
	d.faults = faultinject.New(faultinject.Plan{})
	defer func() { // a journal that panics disagrees too
		if p := recover(); p != nil {
			msg, ok := p.(journalDisagreement)
			if !ok {
				msg = journalDisagreement(fmt.Sprintf("panic: %v\n%s", p, debug.Stack()))
			}
			f = &journalFailure{string(msg), strings.Join(d.ops, "\n")}
		}
		if d.j != nil {
			d.j.Close()
		}
	}()
	d.m = journalModel{base: make([]linalg.Vector, 2+d.rng.Intn(8)), fileBase: 1}
	for i := range d.m.base {
		d.m.base[i] = d.vector()
	}
	stepSeeds := make([]uint64, journalSteps)
	for i := range stepSeeds {
		stepSeeds[i] = d.rng.Uint64()
	}
	d.reopen(0, 0)
	for _, step := range steps {
		d.rng = linalg.NewRNG(stepSeeds[step-1])
		switch p := d.rng.Intn(100); {
		case p < 55:
			d.append(d.record())
		case p < 63:
			err := d.j.Sync()
			d.logf("Sync() -> %v", err)
			d.check(err == nil, "Sync: %v", err)
			d.reach("synced-on-demand", d.m.sync())
		case p < 73:
			d.compact()
		case p < 85:
			d.arm()
		default:
			d.crash()
		}
		d.check(d.j.LastSeq() == uint64(len(d.m.records)), "LastSeq() = %d, the model acknowledged %d records", d.j.LastSeq(), len(d.m.records))
		d.check(d.j.Size() == d.m.size(), "Size() = %d, the model's records end at %d", d.j.Size(), d.m.size())
		d.check(d.j.Stats() == d.m.stats, "Stats() = %+v, the model's %+v", d.j.Stats(), d.m.stats)
	}
	d.crash()
	return d.seen, nil
}

func (d *journalDriver) logf(format string, args ...any) {
	d.ops = append(d.ops, fmt.Sprintf("%4d  ", len(d.ops))+fmt.Sprintf(format, args...))
}

// check ends the run as a disagreement unless ok.
func (d *journalDriver) check(ok bool, format string, args ...any) {
	if !ok {
		panic(journalDisagreement(fmt.Sprintf(format, args...)))
	}
}

// reach records that the run passed through a regime when ok.
func (d *journalDriver) reach(regime string, ok bool) {
	if ok {
		d.seen[regime] = true
	}
}

func (d *journalDriver) vector() linalg.Vector {
	return linalg.Vector{d.rng.Normal(0, 1), d.rng.Normal(0, 1), d.rng.Normal(0, 1)}
}

// record draws a feedback session over the collection as it stands, or a
// batch of one to three images.
func (d *journalDriver) record() modelRecord {
	if d.rng.Bool(0.4) {
		rows := make([]linalg.Vector, 1+d.rng.Intn(3))
		for i := range rows {
			rows[i] = d.vector()
		}
		return modelRecord{images: rows}
	}
	n := len(d.m.base)
	for _, r := range d.m.records {
		n += len(r.images)
	}
	s := feedbacklog.Session{QueryImage: d.rng.Intn(n), TargetCategory: d.rng.Intn(4), Judgments: map[int]feedbacklog.Judgment{}}
	for i := 1 + d.rng.Intn(4); i > 0; i-- {
		s.Judgments[d.rng.Intn(n)] = feedbacklog.Judgment(1 - 2*d.rng.Intn(2))
	}
	return modelRecord{session: &s}
}

func (d *journalDriver) write(r modelRecord) error {
	if r.session != nil {
		d.logf("AppendSession(query %d, %d judgments)", r.session.QueryImage, len(r.session.Judgments))
		return d.j.AppendSession(*r.session)
	}
	d.logf("AppendImages(%d rows)", len(r.images))
	return d.j.AppendImages(r.images)
}

func (d *journalDriver) append(r modelRecord) {
	fires := d.armed != nil && !d.m.broken
	d.poisoned = d.poisoned || d.m.broken
	err := d.write(r)
	acked := d.m.append(r, d.armed, d.always)
	d.logf("  -> %v", err)
	d.check(acked == (err == nil), "the journal answers %v, the model acknowledges: %v", err, acked)
	d.check(acked || errors.Is(err, faultinject.ErrInjected), "the append was refused for %v, not for the injected fault", err)
	if fires {
		d.reach("fault-after-compaction", d.compacted)
		d.armed = nil
	}
	d.reach("synced-append", acked && d.always)
	d.compacted = false
}

// compact snapshots at a mark between the last snapshot's and the last
// record, half the time the last record, and compacts the journal to it —
// unless the crash comes first. Now and then it asks for a mark past the
// last record, which the journal refuses.
func (d *journalDriver) compact() {
	last, mark := len(d.m.records), len(d.m.records)
	if d.rng.Bool(0.5) {
		mark = d.m.mark + d.rng.Intn(last-d.m.mark+2)
	}
	if mark <= last && d.rng.Bool(0.3) {
		d.m.mark = mark
		d.logf("snapshot at %d, not compacted", mark)
		return
	}
	err := d.j.CompactTo(uint64(mark))
	d.logf("CompactTo(%d) -> %v", mark, err)
	if mark > last {
		d.check(err != nil, "compaction through %d accepted, the last record is %d", mark, last)
		return
	}
	d.check(err == nil, "CompactTo: %v", err)
	d.compacted = mark >= d.m.fileBase
	d.reach("kept-tail", d.compacted && mark < last)
	d.m.compact(mark)
}

// arm arms a fault on the next append: a clean write failure, a torn write,
// or under FsyncAlways a failed fsync, each with a rollback truncate that
// fails too or not.
func (d *journalDriver) arm() {
	if d.armed != nil || d.m.broken {
		return
	}
	var plan faultinject.Plan
	kinds := 2 // a failed fsync only where appends sync
	if d.always {
		kinds = 3
	}
	switch d.rng.Intn(kinds) {
	case 0:
		plan.FailWrites = []int{1}
	case 1:
		plan.TornWrites = map[int]int{1: 1 + d.rng.Intn(48)} // past the record's end too, which writes it whole
	default:
		plan.FailSyncFrom, plan.FailSyncCount = 1, 1
	}
	if d.rng.Bool(0.3) {
		plan.FailTruncates = []int{1}
	}
	d.faults.SetPlan(plan)
	d.armed = &plan
	d.logf("arm the next append with %+v", plan)
}

// crash closes the journal and reopens it from the file in one of the shapes
// a crash leaves: the file as it stands, a cut inside the record an append
// was writing (or the zeros of a failed rollback), zeros from a point inside
// that record to the end, under fsync off a lost tail a snapshot covers, or
// an acknowledged record before the last damaged, which must be refused with
// the file left as it was.
func (d *journalDriver) crash() {
	d.faults.SetPlan(faultinject.Plan{})
	d.armed = nil
	offs := d.m.offsets()
	lo := offs[len(offs)-1]
	hi := lo + d.m.junk
	shape := d.rng.Intn(5)
	inFlight := shape < 3 && !d.m.broken && d.rng.Bool(0.7)
	if inFlight { // an append that reached the file, but not its caller
		r := d.record()
		d.check(d.write(r) == nil && d.m.append(r, nil, d.always), "the append before the crash failed")
		hi = lo + r.framed()
	}
	d.closeJournal()
	raw, err := os.ReadFile(d.path)
	d.check(err == nil && int64(len(raw)) == hi, "the file is %d bytes (%v), the model's %d", len(raw), err, hi)
	kept, torn := len(d.m.records), hi-lo
	lost := func() { // the in-flight record did not survive: nobody was told of it
		if inFlight {
			kept--
			d.m.records = d.m.records[:kept]
		}
	}
	if inFlight {
		torn = 0
	}
	what := "as it stands"
	switch {
	case shape == 1 && hi > lo:
		c := lo + int64(d.rng.Intn(int(hi-lo)))
		raw, torn, what = raw[:c], c-lo, fmt.Sprintf("cut at %d", c)
		lost()
		d.reach("cut-record", inFlight && torn > 0)
	case shape == 2 && hi > lo:
		// Zeros begin at the record or past its length and header checksum:
		// zeros inside those are a damaged header, which replay refuses.
		c := lo
		if d.rng.Bool(0.7) {
			c += 8 + int64(d.rng.Intn(int(hi-lo-8)))
		}
		what = fmt.Sprintf("zeroed from %d", c)
		if slices.ContainsFunc(raw[c:hi], func(b byte) bool { return b != 0 }) {
			clear(raw[c:hi])
			torn = hi - lo
			lost()
			d.reach("zero-tail", c == lo)
			d.reach("final-checksum", inFlight && c >= lo+journalRecordHeaderLen)
		}
	case shape == 3 && !d.always:
		// A snapshot of every record was installed, and the power loss takes
		// a tail the journal never synced: from a record or from any byte.
		d.m.mark = len(d.m.records)
		c := int64(d.rng.Intn(int(hi) + 1))
		if d.rng.Bool(0.5) {
			c = offs[d.rng.Intn(len(offs))]
		}
		raw, what = raw[:c], fmt.Sprintf("losing the tail from %d behind a snapshot at %d", c, d.m.mark)
		kept, torn = d.m.fileBase-1, c
		for i := len(offs) - 1; c >= emptyJournalSize && i >= 0; i-- {
			if offs[i] <= c {
				kept, torn = d.m.fileBase-1+i, c-offs[i]
				break
			}
		}
		d.reach("covered-tail-lost", kept < len(d.m.records))
		d.reach("fresh-at-mark", c < emptyJournalSize && d.m.mark > 0)
	case shape == 4 && len(offs) > 2:
		i := d.rng.Intn(len(offs) - 2)
		bad := slices.Clone(raw)
		if d.rng.Bool(0.5) {
			clear(bad[offs[i] : offs[i]+journalRecordHeaderLen])
			d.reach("zeroed-header", true)
		} else {
			bad[offs[i]+int64(d.rng.Intn(int(offs[i+1]-offs[i])))] ^= byte(1 + d.rng.Intn(255))
			d.reach("flipped-record", true)
		}
		d.refused(bad, d.m.mark, fmt.Sprintf("record %d of the file damaged", i))
	}
	d.logf("crash, the file %s", what)
	d.check(os.WriteFile(d.path, raw, 0o644) == nil, "rewrite the crashed file")
	if d.m.fileBase > 1 && len(raw) >= emptyJournalSize && d.rng.Bool(0.3) {
		d.refused(raw, d.rng.Intn(d.m.fileBase-1), "a snapshot older than the compaction")
		d.reach("stale-snapshot", true)
	}
	d.reach("poisoned", d.poisoned && torn > 0)
	d.reopen(kept, torn)
}

// closeJournal closes the journal before a crash: Close flushes what is
// unsynced, so a graceful shutdown loses nothing, a second Close does
// nothing, and an append after it is refused and changes nothing.
func (d *journalDriver) closeJournal() {
	first, second := d.j.Close(), d.j.Close()
	err := d.j.AppendImages([]linalg.Vector{{1, 2, 3}})
	d.logf("Close() -> %v, Close() -> %v, AppendImages(1 row) -> %v", first, second, err)
	d.check(first == nil && second == nil, "Close before the crash failed")
	d.check(err != nil && strings.Contains(err.Error(), "journal is closed"), "an append after Close answers %v, not that the journal is closed", err)
	d.reach("synced-at-close", d.m.sync())
	d.check(d.j.Stats() == d.m.stats, "after Close, Stats() = %+v, the model's %+v", d.j.Stats(), d.m.stats)
	d.j = nil
}

// refused writes file and checks that a reopen over the snapshot at mark
// refuses it as corrupt and leaves every byte as it was.
func (d *journalDriver) refused(file []byte, mark int, what string) {
	d.check(os.WriteFile(d.path, file, 0o644) == nil, "write the damaged file")
	rows, log := d.m.state(mark)
	j, _, _, err := OpenJournal(d.path, rows, log, JournalOptions{Fsync: FsyncOff, SnapshotSeq: uint64(mark)})
	if j != nil {
		j.Close()
	}
	d.logf("reopen with %s -> %v", what, err)
	d.check(errors.Is(err, ErrCorrupt), "a reopen with %s answers %v, not ErrCorrupt", what, err)
	after, err := os.ReadFile(d.path)
	d.check(err == nil && slices.Equal(after, file), "a reopen with %s changed the file", what)
}

// reopen opens the journal over the snapshot at the model's mark, after a
// crash that kept the file's records up to sequence kept and left torn
// bytes after them, and compares the replay and the state it rebuilt.
func (d *journalDriver) reopen(kept int, torn int64) {
	want := d.m.reopen(kept, torn)
	rows, log := d.m.state(d.m.mark)
	opts := JournalOptions{Fsync: FsyncOff, SnapshotSeq: uint64(d.m.mark), WrapFile: func(f *os.File) File { return d.faults.Wrap(f) }}
	if d.always {
		opts.Fsync = FsyncAlways
	}
	j, got, replay, err := OpenJournal(d.path, rows, log, opts)
	d.logf("reopen over the snapshot at %d -> %+v, %v", d.m.mark, replay, err)
	d.check(err == nil, "reopen: %v", err)
	d.j, d.poisoned, d.compacted = j, false, false
	d.check(replay == want, "the reopen replayed %+v, the model %+v", replay, want)
	wantRows, wantLog := d.m.state(len(d.m.records))
	d.check(len(got) == len(wantRows) && log.NumSessions() == wantLog.NumSessions(), "the replay holds %d rows and %d sessions, the model %d and %d", len(got), log.NumSessions(), len(wantRows), wantLog.NumSessions())
	for i, row := range got {
		d.check(slices.Equal(row, wantRows[i]), "replayed row %d is %v, the model's %v", i, row, wantRows[i])
	}
	for i, s := range log.Sessions() {
		w := wantLog.Sessions()[i]
		d.check(s.QueryImage == w.QueryImage && s.TargetCategory == w.TargetCategory && maps.Equal(s.Judgments, w.Judgments), "replayed session %d is %+v, the model's %+v", i, s, w)
	}
	d.reach("sessions-and-images", want.Sessions > 0 && want.Images > 0 && torn == 0)
	d.reach("skipped", want.Skipped > 0)
}
