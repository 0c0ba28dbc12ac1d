package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// TestFilesMatchModel drives the three file kinds — feature store, log store
// and snapshot, with a journal sequence or without — against a model: the
// rows, labels and log a seed draws (a negative zero, a subnormal and the
// largest finite value among the rows). Each step writes one kind to a buffer
// or saves it (to a path, to a bare filename, over an earlier file, or a save
// the writer refuses, which must leave the directory as it was), then either
// reads the file back through every reader of its kind, which must give the
// model's content bit for bit, or damages it by one drawn class, which every
// reader must refuse as that class is refused. A failure prints the seed and
// the operations; a seed replays a subtest:
// go test -run 'TestFilesMatchModel/^seed=7$' ./internal/storage
func TestFilesMatchModel(t *testing.T) {
	seeds := uint64(64)
	if testing.Short() {
		seeds /= 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFileDriver(t, seed) })
	}
}

// The scripted tests TestFilesMatchModel replaced, each pinned to a seed
// that passes through what it was written for.
func TestFeaturesRoundTrip(t *testing.T)     { filePin(t, 28, "features/buffer/read") }
func TestFeaturesFileRoundTrip(t *testing.T) { filePin(t, 28, "features/path/read") }
func TestEmptyCollections(t *testing.T)      { filePin(t, 28, "features/empty/read") }
func TestFailedSaveFeaturesKeepsThePreviousStore(t *testing.T) {
	filePin(t, 28, "features/failed-save/over-a-file")
}
func TestWriteFeaturesSizeMismatch(t *testing.T) { filePin(t, 28, "features/failed-save") }
func TestLogRoundTrip(t *testing.T)              { filePin(t, 28, "log/buffer/read") }
func TestLogFileRoundTrip(t *testing.T)          { filePin(t, 28, "log/path/read") }
func TestEncodeSessionAscendingImages(t *testing.T) {
	filePin(t, 28, "log/buffer/read", "log/repeated-image")
}
func TestSnapshotRoundTrip(t *testing.T) {
	filePin(t, 28, "snapshot/buffer/read", "snapshot-at/buffer/read")
}
func TestSaveSnapshotAtomicOverwrite(t *testing.T) { filePin(t, 28, "snapshot/overwrite/read") }
func TestSaveSnapshotBareFilename(t *testing.T)    { filePin(t, 28, "snapshot/bare/read") }
func TestCorruptionDetected(t *testing.T)          { filePin(t, 28, "features/flipped-bit") }
func TestTruncationDetected(t *testing.T)          { filePin(t, 28, "log/truncation/inside") }
func TestWrongKindRejected(t *testing.T)           { filePin(t, 28, "features/wrong-kind") }
func TestBadMagicRejected(t *testing.T)            { filePin(t, 28, "features/bad-magic") }
func TestLoadMissingFiles(t *testing.T)            { filePin(t, 28, "missing") }
func TestSnapshotCorruptionDetected(t *testing.T) {
	filePin(t, 28, "snapshot/flipped-bit", "snapshot/truncation/inside")
}
func TestSnapshotValidation(t *testing.T) {
	filePin(t, 28, "snapshot/refused/empty", "snapshot/refused/nil-log", "snapshot/refused/log-size")
}
func TestLoadersRefuseDamage(t *testing.T) {
	filePin(t, 14, "features/truncation/inside", "features/truncation/prefix", "features/flipped-bit",
		"features/length-past-limit", "features/size-contradicts-dimension",
		"log/truncation/inside", "log/flipped-bit", "log/size-contradicts-dimension",
		"snapshot/truncation/inside", "snapshot/flipped-bit", "snapshot/over-count", "snapshot/trailing-data")
}

// filePin runs a seed and fails unless it passes through every regime named.
func filePin(t *testing.T, seed uint64, regimes ...string) {
	t.Helper()
	seen := runFileDriver(t, seed)
	for _, r := range regimes {
		if !seen[r] {
			t.Errorf("seed %d no longer reaches %s, only %v", seed, r, slices.Sorted(maps.Keys(seen)))
		}
	}
}

// fileSteps is how many operations a seed draws.
const fileSteps = 80

// fileContent is what one write put in a file: the kind, the first images
// rows (all of them in a snapshot), the first sessions of the log and, in a
// snapshot, the journal sequence.
type fileContent struct {
	kind             uint16
	images, sessions int
	seq              uint64
}

// kindNames names the kinds in the regimes; a snapshot that records a
// sequence is also a snapshot-at.
var kindNames = map[uint16]string{KindFeatures: "features", KindLog: "log", KindSnapshot: "snapshot"}

func (c fileContent) name() string {
	return kindNames[c.kind] + map[bool]string{true: "-at"}[c.seq != 0]
}

// readBack is what a reader returned: rows and labels from the feature
// store's row readers, a store, a log and a sequence from the others.
type readBack struct {
	rows   []linalg.Vector
	labels []int
	set    *kernel.ShardedSet
	log    *feedbacklog.Log
	seq    uint64
}

// fileReaders are the readers of each kind, each handed the file both as
// bytes and as the path that holds them.
var fileReaders = map[uint16][]struct {
	name string
	read func(data []byte, path string) (readBack, error)
}{
	KindFeatures: {
		{"ReadFeatures", func(b []byte, _ string) (readBack, error) { return asRows(ReadFeatures(bytes.NewReader(b))) }},
		{"LoadFeatures", func(_ []byte, p string) (readBack, error) { return asRows(LoadFeatures(p)) }},
		{"readFeatureSet", func(b []byte, _ string) (readBack, error) {
			return asSet(readFeatureSet(bytes.NewReader(b), int64(len(b))))
		}},
		{"LoadFeatureSet", func(_ []byte, p string) (readBack, error) { return asSet(LoadFeatureSet(p)) }},
	},
	KindLog: {
		{"ReadLog", func(b []byte, _ string) (readBack, error) { return asLog(ReadLog(bytes.NewReader(b))) }},
		{"LoadLog", func(_ []byte, p string) (readBack, error) { return asLog(LoadLog(p)) }},
	},
	KindSnapshot: {
		{"readSnapshot", func(b []byte, _ string) (readBack, error) { return asSnapshot(readSnapshot(bytes.NewReader(b))) }},
		{"LoadSnapshotSetAt", func(_ []byte, p string) (readBack, error) { return asSnapshot(LoadSnapshotSetAt(p)) }},
	},
}

func asRows(rows []linalg.Vector, labels []int, err error) (readBack, error) {
	return readBack{rows: rows, labels: labels}, err
}

func asLog(log *feedbacklog.Log, err error) (readBack, error) { return readBack{log: log}, err }

func asSet(set *kernel.ShardedSet, err error) (readBack, error) { return readBack{set: set}, err }

func asSnapshot(set *kernel.ShardedSet, log *feedbacklog.Log, seq uint64, err error) (readBack, error) {
	return readBack{set: set, log: log, seq: seq}, err
}

type fileDriver struct {
	rng      *linalg.RNG
	dir      string
	rows     []linalg.Vector
	labels   []int
	sessions []feedbacklog.Session
	paths    []string // the files saved so far, in order
	ops      []string
	seen     map[string]bool
}

// runFileDriver runs a seed's steps in a directory of its own, the working
// directory for the bare filenames, and returns the regimes they passed
// through.
func runFileDriver(t *testing.T, seed uint64) map[string]bool {
	d := &fileDriver{rng: linalg.NewRNG(seed), dir: t.TempDir(), seen: map[string]bool{}}
	t.Chdir(d.dir)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("seed %d: %v\n%s\nafter these operations:\n%s", seed, p, debug.Stack(), strings.Join(d.ops, "\n"))
		}
	}()
	n, dim := 3+d.rng.Intn(8), 1+d.rng.Intn(4)
	d.rows, d.labels = randomRows(n, dim, d.rng.Uint64()), make([]int, n)
	for i := range d.labels {
		d.labels[i] = d.rng.Intn(7) - 3
	}
	for _, x := range []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64} {
		d.rows[d.rng.Intn(n)][d.rng.Intn(dim)] = x
	}
	for range 1 + d.rng.Intn(4) {
		s := feedbacklog.Session{QueryImage: d.rng.Intn(n), TargetCategory: d.rng.Intn(7) - 3, Judgments: map[int]feedbacklog.Judgment{}}
		for want := 2 + d.rng.Intn(min(n, 5)-1); len(s.Judgments) < want; {
			s.Judgments[d.rng.Intn(n)] = feedbacklog.Judgment(1 - 2*d.rng.Intn(2))
		}
		d.sessions = append(d.sessions, s)
	}
	d.logf("model: %d rows of dimension %d, %d sessions", n, dim, len(d.sessions))
	for _, readers := range fileReaders {
		for _, r := range readers {
			_, err := r.read(nil, "missing")
			d.check(!strings.HasPrefix(r.name, "Load") || errors.Is(err, os.ErrNotExist), "%s of a missing file answers %v", r.name, err)
		}
	}
	d.seen["missing"] = true
	for range fileSteps {
		d.step()
	}
	return d.seen
}

func (d *fileDriver) logf(format string, args ...any) {
	d.ops = append(d.ops, fmt.Sprintf("%4d  ", len(d.ops))+fmt.Sprintf(format, args...))
}

func (d *fileDriver) check(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

// logOf is the model's log of its first s sessions.
func (d *fileDriver) logOf(s int) *feedbacklog.Log {
	log := feedbacklog.NewLog(len(d.rows))
	for _, session := range d.sessions[:s] {
		_, err := log.AddSession(session)
		d.check(err == nil, "%v", err)
	}
	return log
}

// writers returns the Write and the Save call of a kind over the pieces
// given, of which the kind's writer reads its own.
func writers(kind uint16, seq uint64, rows []linalg.Vector, labels []int, set *kernel.ShardedSet, log *feedbacklog.Log) (func(io.Writer) error, func(string) error) {
	switch kind {
	case KindFeatures:
		return func(w io.Writer) error { return WriteFeatures(w, rows, labels) }, func(p string) error { return SaveFeatures(p, rows, labels) }
	case KindLog:
		return func(w io.Writer) error { return WriteLog(w, log) }, func(p string) error { return SaveLog(p, log) }
	}
	return func(w io.Writer) error { return WriteSnapshotAt(w, set, log, seq) }, func(p string) error { return SaveSnapshotSetAt(p, set, log, seq) }
}

// records is how many records a file of c holds.
func (d *fileDriver) records(c fileContent) int {
	return map[uint16]int{KindFeatures: c.images, KindLog: 1 + c.sessions, KindSnapshot: 1 + len(d.rows) + c.sessions}[c.kind]
}

// step writes one drawn content one drawn way, then reads it back or damages
// it.
func (d *fileDriver) step() {
	c := fileContent{kind: []uint16{KindFeatures, KindLog, KindSnapshot}[d.rng.Intn(3)], images: len(d.rows), sessions: d.rng.Intn(len(d.sessions) + 1)}
	if c.kind == KindFeatures {
		c.sessions = 0
		if d.rng.Bool(0.15) {
			c.images = 0
		}
	}
	if c.kind == KindSnapshot && d.rng.Bool(0.5) {
		c.seq = d.rng.Uint64() >> d.rng.Intn(64)
	}
	medium := []string{"buffer", "path", "bare", "overwrite", "failed-save"}[d.rng.Intn(5)]
	if medium == "overwrite" && len(d.paths) == 0 || medium == "failed-save" && c.kind == KindLog {
		medium = "path"
	}
	if medium == "failed-save" {
		d.failedSave(c)
		return
	}
	write, save := writers(c.kind, c.seq, d.rows[:c.images], d.labels[:c.images], kernel.NewShardedSet(d.rows, 0), d.logOf(c.sessions))
	var buf bytes.Buffer
	d.check(write(&buf) == nil, "writing %+v failed", c)
	data, ends := buf.Bytes(), []int{fileHeaderLen} // the header's end, then each record's
	for e := fileHeaderLen; e < len(data); ends = append(ends, e) {
		e += 8 + int(binary.LittleEndian.Uint32(data[e:]))
	}
	d.check(len(ends)-1 == d.records(c) && ends[len(ends)-1] == len(data), "%s of %+v is %d bytes in records ending at %v", c.name(), c, len(data), ends)
	path := fmt.Sprintf("file-%d", len(d.ops)) // a bare filename
	switch medium {
	case "buffer":
		d.check(os.WriteFile(path, data, 0o644) == nil, "write %s", path)
	case "path":
		path = filepath.Join(d.dir, path)
	case "overwrite":
		path = d.paths[d.rng.Intn(len(d.paths))]
	}
	d.logf("%s %s %+v to %s", medium, c.name(), c, path)
	if medium != "buffer" {
		d.check(save(path) == nil, "save %+v to %s failed", c, path)
		saved, err := os.ReadFile(path)
		d.check(err == nil && bytes.Equal(saved, data), "the saved file differs from what the writer writes (%v)", err)
		d.paths = append(d.paths, path)
	}
	if d.rng.Bool(0.4) {
		d.damage(c, data, ends)
		return
	}
	for _, r := range fileReaders[c.kind] {
		got, err := r.read(data, path)
		d.check(err == nil, "%s of %s: %v", r.name, c.name(), err)
		d.holds(r.name, c, got)
	}
	d.seen[c.name()+"/"+medium+"/read"] = true
	d.seen[kindNames[c.kind]+"/"+medium+"/read"] = true
	d.seen["features/empty/read"] = d.seen["features/empty/read"] || c.kind == KindFeatures && c.images == 0
}

// holds checks that a reader gave back c, bit for bit.
func (d *fileDriver) holds(reader string, c fileContent, got readBack) {
	if strings.HasSuffix(reader, "Features") { // a row reader
		d.check(slices.Equal(got.labels, d.labels[:c.images]), "%s read labels %v, the model's %v", reader, got.labels, d.labels[:c.images])
		got.set = kernel.NewShardedSet(got.rows, 0)
	}
	if c.kind != KindLog {
		d.check(got.set != nil, "%s read no store", reader)
		err := storeHoldsRows(got.set, d.rows[:c.images])
		d.check(err == nil, "%s: %v", reader, err)
	}
	if c.kind != KindFeatures {
		d.check(got.log != nil && logsEquivalent(got.log, d.logOf(c.sessions)), "%s read the log %+v, the model's is %+v", reader, got.log, d.logOf(c.sessions))
	}
	d.check(got.seq == c.seq, "%s read sequence %d, the model's %d", reader, got.seq, c.seq)
}

// failedSave saves what the writer of c's kind refuses — a feature store
// with a label short, a snapshot of an empty store, without a log or with a
// log over another collection — to a fresh file or over an earlier one: the
// writer must refuse it, the save too, and the directory must be as it was.
func (d *fileDriver) failedSave(c fileContent) {
	path, what := "never", "fresh"
	if len(d.paths) > 0 && d.rng.Bool(0.7) {
		path, what = d.paths[d.rng.Intn(len(d.paths))], "over-a-file"
	}
	before, _ := os.ReadFile(path)
	listing := func() string { entries, err := os.ReadDir(d.dir); return fmt.Sprint(entries, err) }
	was := listing()
	set, log, reason := kernel.NewShardedSet(d.rows, 0), d.logOf(c.sessions), "labels"
	if c.kind == KindSnapshot {
		switch reason = []string{"empty", "nil-log", "log-size"}[d.rng.Intn(3)]; reason {
		case "empty":
			set = kernel.NewShardedSet(nil, 0)
		case "nil-log":
			log = nil
		default:
			log = feedbacklog.NewLog(len(d.rows) + 1)
		}
	}
	write, save := writers(c.kind, c.seq, d.rows, d.labels[1:], set, log)
	werr, serr := write(io.Discard), save(path)
	d.logf("failed save of %s (%s) to %s -> %v, %v", c.name(), reason, path, werr, serr)
	d.check(werr != nil && serr != nil && werr.Error() == serr.Error(), "the writer answers %v and the save %v", werr, serr)
	after, _ := os.ReadFile(path)
	d.check(bytes.Equal(before, after), "a failed save changed %s: %d bytes became %d", path, len(before), len(after))
	d.check(was == listing(), "a failed save left %v where %v was", listing(), was)
	d.seen[kindNames[c.kind]+"/refused/"+reason] = true
	d.seen[kindNames[c.kind]+"/failed-save"] = true
	d.seen[kindNames[c.kind]+"/failed-save/"+what] = true
}

// damage damages the file of c by one drawn class that applies to it and
// checks every reader's answer against the class's refusal: the content of
// the shorter file a cut at a record boundary of a feature or log store
// leaves (accept), or an error that is ErrCorrupt or not and says what.
func (d *fileDriver) damage(c fileContent, data []byte, ends []int) {
	records := len(ends) - 1
	firstSession := records - c.sessions // its record index
	// A class that does not apply to the file is a truncation: only a
	// snapshot announces a count and ends where it says, a record must be
	// there to damage, and a session to judge an image twice (every session
	// of the model judges two or more) or, in a log, to miscount.
	class := []string{"truncation", "flipped-bit", "length-past-limit", "size-contradicts-dimension", "over-count", "trailing-data", "wrong-kind", "bad-magic", "repeated-image"}[d.rng.Intn(9)]
	switch {
	case (class == "over-count" || class == "trailing-data") && c.kind != KindSnapshot,
		records == 0 && class != "wrong-kind" && class != "bad-magic",
		c.sessions == 0 && (class == "repeated-image" || class == "size-contradicts-dimension" && c.kind == KindLog):
		class = "truncation"
	}
	bad, readers, regime := slices.Clone(data), fileReaders[c.kind], kindNames[c.kind]+"/"+class
	var accept *fileContent
	corrupt, says := true, ""
	switch class {
	case "truncation":
		cut := d.rng.Intn(len(data))
		if records > 0 && d.rng.Bool(0.3) {
			cut = ends[d.rng.Intn(records)]
		}
		bad = bad[:cut]
		switch kept := slices.Index(ends, cut); {
		case cut < fileHeaderLen:
			corrupt, says, regime = false, "storage: read", regime+"/header"
		case kept < 0 || c.kind == KindSnapshot && kept > 0:
			says, regime = "truncated", regime+"/inside"
		case kept == 0 && c.kind != KindFeatures:
			corrupt, says, regime = false, "record: EOF", regime+"/no-record"
		default: // a shorter store of the same kind
			shorter := c
			shorter.images, shorter.sessions = min(c.images, kept), max(min(c.sessions, kept-1), 0)
			accept, regime = &shorter, regime+"/prefix"
		}
	case "flipped-bit":
		bad[fileHeaderLen+d.rng.Intn(len(data)-fileHeaderLen)] ^= 1 << d.rng.Intn(8)
	case "length-past-limit":
		binary.LittleEndian.PutUint32(bad[ends[d.rng.Intn(records)]:], maxRecordLen+1+uint32(d.rng.Intn(1<<20)))
		says = "exceeds limit"
	case "size-contradicts-dimension":
		// A feature record's dimension, the snapshot's, or the count of a
		// session's judgments grows by one to three.
		r, field := 0, 4
		if c.kind == KindFeatures {
			r = d.rng.Intn(records)
		} else if c.kind == KindLog {
			r, field = firstSession+d.rng.Intn(c.sessions), 8
		}
		bad = resealed(bad, ends[r], func(p []byte) {
			binary.LittleEndian.PutUint32(p[field:], binary.LittleEndian.Uint32(p[field:])+1+uint32(d.rng.Intn(3)))
		})
		says = "size mismatch"
	case "over-count":
		count := []uint32{uint32(len(d.rows) + 1 + d.rng.Intn(1000)), math.MaxUint32}[d.rng.Intn(2)]
		bad = resealed(bad, ends[0], func(p []byte) { binary.LittleEndian.PutUint32(p[0:4], count) })
		says = "snapshot descriptor size mismatch" // what the first session's record reads as
		if c.sessions == 0 {
			says = "truncated snapshot collection"
		}
	case "trailing-data": // a copy of a record, whole or cut
		r := d.rng.Intn(records)
		bad = append(bad, data[ends[r]:ends[r+1]-d.rng.Intn(2)*d.rng.Intn(ends[r+1]-ends[r])]...)
		says = "trailing data after snapshot"
	case "wrong-kind": // the file is handed to every reader of the other two kinds
		readers = slices.Concat(fileReaders[c.kind%3+1], fileReaders[(c.kind+1)%3+1])
		corrupt, says = false, "wrong file kind"
	case "bad-magic":
		bad[d.rng.Intn(4)] ^= byte(1 + d.rng.Intn(255))
		says = "bad magic"
	case "repeated-image": // a session judges an image twice in a row
		i := d.rng.Intn(c.sessions)
		j := d.rng.Intn(len(d.sessions[i].Judgments) - 1)
		bad = resealed(bad, ends[firstSession+i], func(p []byte) { copy(p[20+8*j:24+8*j], p[12+8*j:16+8*j]) })
		says = "after image"
	}
	d.logf("damage %s by %s -> accept %v, ErrCorrupt %v, %q", c.name(), class, accept, corrupt, says)
	d.check(os.WriteFile("damaged", bad, 0o644) == nil, "write the damaged file")
	for _, r := range readers {
		got, err := r.read(bad, "damaged")
		if accept != nil {
			d.check(err == nil, "%s of %s cut at a record boundary: %v", r.name, c.name(), err)
			d.holds(r.name, *accept, got)
			continue
		}
		d.check(err != nil && errors.Is(err, ErrCorrupt) == corrupt && strings.Contains(err.Error(), says),
			"%s answers %s damaged by %s with %v, want %q (ErrCorrupt: %v)", r.name, c.name(), class, err, says, corrupt)
	}
	d.seen[regime] = true
}

// resealed returns a copy of data whose record at file offset off has its
// payload edited and its CRC recomputed, so only the decoder's content checks
// can refuse it.
func resealed(data []byte, off int, edit func(payload []byte)) []byte {
	data = slices.Clone(data)
	n := int(binary.LittleEndian.Uint32(data[off:]))
	edit(data[off+8 : off+8+n])
	binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+n]))
	return data
}

// TestOverAnnouncedSnapshotReservesLittle: the count is untrusted until the
// records arrive, so a snapshot that announces 2^32 − 1 images reserves a
// shard and a bounded table, not the collection — nor, at a large dimension,
// more than the descriptors it holds.
func TestOverAnnouncedSnapshotReservesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	for _, dim := range []int{3, 1 << 16} {
		var buf bytes.Buffer
		if err := WriteSnapshotAt(&buf, kernel.NewShardedSet(randomRows(1, dim, 5), 0), feedbacklog.NewLog(1), 0); err != nil {
			t.Fatal(err)
		}
		data := resealed(buf.Bytes(), fileHeaderLen, func(p []byte) { binary.LittleEndian.PutUint32(p[0:4], math.MaxUint32) })
		bound := max(1<<20, 4*uint64(len(data)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := readSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("a snapshot of dimension %d announcing 2^32 − 1 images returned %v, want ErrCorrupt", dim, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("a snapshot of dimension %d announcing 2^32 − 1 images allocated %d bytes before it was refused, want at most %d", dim, got, bound)
		}
	}
}

// TestRowAdapters holds each form kept for callers that keep the collection
// as rows to the store form it adapts, and to refusing rows a store cannot
// hold with an error.
func TestRowAdapters(t *testing.T) {
	rows, added := randomRows(5, 3, 2), randomRows(2, 3, 8)
	for _, c := range []struct {
		name string
		// run runs the adapter over rows in dir and returns the store it left:
		// the snapshot read back, or the replay of a journal that the adapter
		// opened and added was appended to.
		run  func(dir string, rows []linalg.Vector) (*kernel.ShardedSet, error)
		want []linalg.Vector
	}{
		{"SaveSnapshotAt", func(dir string, rows []linalg.Vector) (*kernel.ShardedSet, error) {
			if err := SaveSnapshotAt(filepath.Join(dir, "engine.snap"), rows, feedbacklog.NewLog(max(len(rows), 1)), 9); err != nil {
				return nil, err
			}
			set, _, seq, err := LoadSnapshotSetAt(filepath.Join(dir, "engine.snap"))
			if err == nil && seq != 9 {
				err = fmt.Errorf("sequence %d, want 9", seq)
			}
			return set, err
		}, rows},
		{"OpenJournal", func(dir string, rows []linalg.Vector) (*kernel.ShardedSet, error) {
			open := func() (*Journal, []linalg.Vector, ReplayStats, error) {
				return OpenJournal(filepath.Join(dir, "engine.wal"), rows, feedbacklog.NewLog(max(len(rows), 1)), JournalOptions{Fsync: FsyncOff})
			}
			j, _, _, err := open()
			if err != nil {
				return nil, err
			}
			if err := errors.Join(j.AppendImages(added), j.Close()); err != nil {
				return nil, err
			}
			j, got, _, err := open()
			if err != nil {
				return nil, err
			}
			return kernel.NewShardedSet(got, 0), j.Close()
		}, slices.Concat(rows, added)},
	} {
		t.Run(c.name, func(t *testing.T) {
			set, err := c.run(t.TempDir(), rows)
			if err == nil {
				err = storeHoldsRows(set, c.want)
			}
			if err != nil {
				t.Error(err)
			}
			for _, refused := range []struct {
				rows []linalg.Vector
				says string
			}{{append(slices.Clone(rows[:4]), linalg.Vector{1}), "descriptor 4 has dimension 1, want 3"}, {nil, "empty collection"}} {
				if _, err := c.run(t.TempDir(), refused.rows); err == nil || !strings.Contains(err.Error(), refused.says) {
					t.Errorf("%s of %d rows answers %v, want an error saying %q", c.name, len(refused.rows), err, refused.says)
				}
			}
		})
	}
}
