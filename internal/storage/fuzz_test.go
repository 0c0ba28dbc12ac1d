package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

// fuzzLogBytes encodes a small valid log store for the seed corpus.
func fuzzLogBytes(f *testing.F) []byte {
	f.Helper()
	log := feedbacklog.NewLog(8)
	sessions := []map[int]feedbacklog.Judgment{
		{0: feedbacklog.Relevant, 3: feedbacklog.Irrelevant},
		{7: feedbacklog.Relevant, 1: feedbacklog.Relevant, 2: feedbacklog.Irrelevant},
	}
	for i, j := range sessions {
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: i, TargetCategory: i, Judgments: j}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func logsEquivalent(a, b *feedbacklog.Log) bool {
	if a.NumImages() != b.NumImages() || a.NumSessions() != b.NumSessions() {
		return false
	}
	for i, sa := range a.Sessions() {
		sb := b.Sessions()[i]
		if sa.QueryImage != sb.QueryImage || sa.TargetCategory != sb.TargetCategory || len(sa.Judgments) != len(sb.Judgments) {
			return false
		}
		for img, j := range sa.Judgments {
			if sb.Judgments[img] != j {
				return false
			}
		}
	}
	return true
}

// fuzzLogBytesBadQuery encodes a log store whose session claims an
// out-of-range query image: record-level decoding alone cannot catch it
// (the collection size is file-level state), so it used to round-trip
// silently and explode later in the query path. ReadLog must reject it.
func fuzzLogBytesBadQuery(f testing.TB) []byte {
	f.Helper()
	var buf bytes.Buffer
	rw, err := newRecordWriter(&buf, KindLog)
	if err != nil {
		f.Fatal(err)
	}
	var sizeRec [4]byte
	binary.LittleEndian.PutUint32(sizeRec[:], 8)
	if err := rw.writePayload(sizeRec[:]); err != nil {
		f.Fatal(err)
	}
	bad := encodeSession(feedbacklog.Session{QueryImage: 1000, Judgments: map[int]feedbacklog.Judgment{2: feedbacklog.Relevant}})
	if err := rw.writePayload(bad); err != nil {
		f.Fatal(err)
	}
	if err := rw.w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLogRoundTrip feeds arbitrary bytes to the log decoder: decoding must
// never panic, and whatever decodes successfully must survive a
// write-and-reread round trip unchanged.
func FuzzLogRoundTrip(f *testing.F) {
	valid := fuzzLogBytes(f)
	f.Add(valid)
	truncated := valid[:len(valid)-5]
	f.Add(truncated)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte("LRFC junk"))
	f.Add([]byte{})
	f.Add(fuzzLogBytesBadQuery(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded is internally consistent: every session's query
		// image and judged images lie inside the declared collection.
		for _, s := range log.Sessions() {
			if err := validateSession(s, log.NumImages()); err != nil {
				t.Fatalf("decoded log holds an invalid session: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, log); err != nil {
			t.Fatalf("re-encode decoded log: %v", err)
		}
		again, err := ReadLog(&buf)
		if err != nil {
			t.Fatalf("re-read encoded log: %v", err)
		}
		if !logsEquivalent(log, again) {
			t.Fatal("log changed across a write/read round trip")
		}
	})
}

// fuzzFeaturesWrappedDim encodes a one-record feature store whose dim field
// is 2^29: in uint32 arithmetic the record size check 8+8*dim wraps to 8,
// the size of this record's payload.
func fuzzFeaturesWrappedDim(f testing.TB) []byte {
	f.Helper()
	var buf bytes.Buffer
	rw, err := newRecordWriter(&buf, KindFeatures)
	if err != nil {
		f.Fatal(err)
	}
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint32(payload[4:8], 1<<29)
	if err := rw.writePayload(payload); err != nil {
		f.Fatal(err)
	}
	if err := rw.w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFeaturesRoundTrip is the same property for the feature store:
// decoding never panics, and what decodes survives a round trip bit for bit.
func FuzzFeaturesRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFeatures(&buf, []linalg.Vector{{1.5, -2}, {0, 0.25}}, []int{3, -1}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add(fuzzFeaturesWrappedDim(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		features, labels, err := ReadFeatures(bytes.NewReader(data))
		set, setErr := readFeatureSet(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if setErr == nil {
				t.Fatalf("the store loader accepted what ReadFeatures refuses (%v)", err)
			}
			return
		}
		// The store loader gives a uniform collection's bits, and refuses
		// a mixed one.
		uniform := len(features) == 0 || !slices.ContainsFunc(features, func(v linalg.Vector) bool { return len(v) != len(features[0]) })
		if uniform != (setErr == nil) {
			t.Fatalf("ReadFeatures read a uniform collection: %v; the store loader: %v", uniform, setErr)
		}
		if uniform {
			if err := storeHoldsRows(set, features); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteFeatures(&buf, features, labels); err != nil {
			t.Fatalf("re-encode decoded features: %v", err)
		}
		features2, labels2, err := ReadFeatures(&buf)
		if err != nil {
			t.Fatalf("re-read encoded features: %v", err)
		}
		if len(features2) != len(features) || !slices.Equal(labels, labels2) {
			t.Fatal("feature store changed across a write/read round trip")
		}
		for i := range features {
			if !slices.EqualFunc(features[i], features2[i], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("feature %d changed across a round trip", i)
			}
		}
	})
}

// FuzzSnapshotRoundTrip is the same property for the combined engine
// snapshot store.
func FuzzSnapshotRoundTrip(f *testing.F) {
	log := feedbacklog.NewLog(3)
	if _, err := log.AddSession(feedbacklog.Session{QueryImage: 1, Judgments: map[int]feedbacklog.Judgment{0: feedbacklog.Relevant, 2: feedbacklog.Irrelevant}}); err != nil {
		f.Fatal(err)
	}
	visual := []linalg.Vector{{1.5, -2}, {0, 0.25}, {3, 4}}
	var buf bytes.Buffer
	if err := WriteSnapshotAt(&buf, visual, log, 0); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, log, _, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := storeHoldsRows(set, snapshotDescriptors(data, set.Len(), set.Dim())); err != nil {
			t.Fatal(err)
		}
		visual := set.Rows()
		var buf bytes.Buffer
		if err := WriteSnapshotAt(&buf, visual, log, 0); err != nil {
			t.Fatalf("re-encode decoded snapshot: %v", err)
		}
		visual2, log2, _, err := ReadSnapshotAt(&buf)
		if err != nil {
			t.Fatalf("re-read encoded snapshot: %v", err)
		}
		if len(visual2) != len(visual) || !logsEquivalent(log, log2) {
			t.Fatal("snapshot changed across a write/read round trip")
		}
		for i := range visual {
			if len(visual[i]) != len(visual2[i]) {
				t.Fatalf("descriptor %d changed length across a round trip", i)
			}
			for j := range visual[i] {
				// Bit-level comparison so NaN payloads in fuzzed input do
				// not trip the float comparison.
				if math.Float64bits(visual[i][j]) != math.Float64bits(visual2[i][j]) {
					t.Fatalf("descriptor %d changed across a round trip", i)
				}
			}
		}
	})
}

// snapshotDescriptors decodes the n descriptor records of dimension dim
// that follow an accepted snapshot's meta record by their offsets in data,
// without the record reader.
func snapshotDescriptors(data []byte, n, dim int) []linalg.Vector {
	off := fileHeaderLen
	off += 8 + int(binary.LittleEndian.Uint32(data[off:])) // the meta record
	rows := make([]linalg.Vector, n)
	for i := range rows {
		rows[i] = make(linalg.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8+8*j:]))
		}
		off += 8 + 8*dim
	}
	return rows
}

// fuzzJournalSeeds builds the seed inputs for FuzzJournalReplay: a valid
// journal (sessions + an image batch), its torn truncations, a bit-flipped
// copy, semantically invalid records (out-of-range query image and judged
// image — the decode-validation regression), and junk.
func fuzzJournalSeeds(f testing.TB) [][]byte {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wal")
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.AppendImages([]linalg.Vector{{1, 2, 3}, {4, 5, 6}}); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x10

	withRecord := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeHeader(&buf, KindJournal); err != nil {
			f.Fatal(err)
		}
		buf.Write(frameJournalRecord(baseRecordPayload(1)))
		buf.Write(frameJournalRecord(payload))
		return buf.Bytes()
	}
	badQuery := append([]byte{journalEntrySession},
		encodeSession(feedbacklog.Session{QueryImage: 999, Judgments: map[int]feedbacklog.Judgment{1: feedbacklog.Relevant}})...)
	badImage := append([]byte{journalEntrySession},
		encodeSession(feedbacklog.Session{QueryImage: 1, Judgments: map[int]feedbacklog.Judgment{999: feedbacklog.Relevant}})...)
	return [][]byte{
		valid,
		valid[:len(valid)-4],
		valid[:fileHeaderLen+3],
		corrupt,
		withRecord(badQuery),
		withRecord(badImage),
		[]byte("LRFC"),
		{},
	}
}

// TestRegenerateJournalFuzzCorpus writes the FuzzJournalReplay seeds (and
// the invalid-query-image log seed) into the checked-in corpus under
// testdata/fuzz, so CI exercises them on every plain `go test` run without
// -fuzz. Skipped unless LRFCSVM_WRITE_FUZZ_CORPUS=1 is set; rerun with it
// after changing the journal format and commit the result.
func TestRegenerateJournalFuzzCorpus(t *testing.T) {
	if os.Getenv("LRFCSVM_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("corpus generator; set LRFCSVM_WRITE_FUZZ_CORPUS=1 to regenerate")
	}
	write := func(name string, data []byte) {
		t.Helper()
		encoded := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(name, []byte(encoded), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzJournalSeeds(t) {
		write(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), seed)
	}
	write(filepath.Join("testdata", "fuzz", "FuzzLogRoundTrip", "seed-badquery"), fuzzLogBytesBadQuery(t))
}

// FuzzJournalReplay feeds arbitrary bytes to the journal opener. Replay
// must never panic; whatever it recovers must be internally consistent
// (sessions validated against the replayed collection) and stable — the
// repaired journal must replay to the identical state a second time and
// still accept appends.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range fuzzJournalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		visual, fblog := journalBase(8, 3)
		j, visual, replay, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			return
		}
		if len(visual) != fblog.NumImages() {
			t.Fatalf("replay desynced: %d descriptors, log covers %d", len(visual), fblog.NumImages())
		}
		for _, s := range fblog.Sessions() {
			if err := validateSession(s, fblog.NumImages()); err != nil {
				t.Fatalf("replayed an invalid session: %v", err)
			}
		}
		// Open truncated any torn tail, so a second replay of the same
		// file must recover exactly the same state, cleanly.
		if err := j.AppendSession(feedbacklog.Session{QueryImage: 0, Judgments: map[int]feedbacklog.Judgment{1: feedbacklog.Relevant}}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		visual2, fblog2 := journalBase(8, 3)
		_, visual2, replay2, err := OpenJournal(path, visual2, fblog2, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("re-replay of repaired journal: %v", err)
		}
		if replay2.TornTailBytes != 0 {
			t.Fatalf("repaired journal still has a torn tail: %+v", replay2)
		}
		if replay2.Records != replay.Records+1 || replay2.Sessions != replay.Sessions+1 || len(visual2) != len(visual) {
			t.Fatalf("re-replay diverged: %+v then %+v", replay, replay2)
		}
	})
}
