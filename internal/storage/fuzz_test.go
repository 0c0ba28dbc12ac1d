package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// recordsFile encodes a file of the kind holding the record payloads given,
// checksums and all, whatever the payloads say.
func recordsFile(t testing.TB, kind uint16, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw, err := newRecordWriter(&buf, kind)
	for _, p := range payloads {
		if err == nil {
			copy(rw.record(len(p)), p)
			err = rw.write()
		}
	}
	if err == nil {
		err = rw.w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// words is a payload built by hand: little-endian 32-bit words.
func words(ws ...int32) []byte {
	var payload []byte
	for _, w := range ws {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(w))
	}
	return payload
}

// encodeSession is one session's record payload, as the writers append it.
func encodeSession(s feedbacklog.Session) []byte {
	return appendSession(nil, s.QueryImage, s.TargetCategory, s.AppendSorted(nil))
}

// logsEquivalent reports whether two logs cover as many images and hold the
// same sessions, in order.
func logsEquivalent(a, b *feedbacklog.Log) bool {
	return a.NumImages() == b.NumImages() && reflect.DeepEqual(a.Sessions(), b.Sessions())
}

// fuzzLogBytesBadQuery encodes a log store whose session claims an
// out-of-range query image: record-level decoding alone cannot catch it
// (the collection size is file-level state), so it used to round-trip
// silently and explode later in the query path. ReadLog must reject it.
func fuzzLogBytesBadQuery(f testing.TB) []byte {
	return recordsFile(f, KindLog, words(8), encodeSession(feedbacklog.Session{QueryImage: 1000, Judgments: map[int]feedbacklog.Judgment{2: feedbacklog.Relevant}}))
}

// FuzzLogRoundTrip feeds arbitrary bytes to the log decoder: decoding must
// never panic, and whatever decodes successfully re-encodes to the same
// bytes — the decoder accepts the writer's encoding only.
func FuzzLogRoundTrip(f *testing.F) {
	_, _, log := pinnedCollection(f)
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	truncated := valid[:len(valid)-5]
	f.Add(truncated)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte("LRFC junk"))
	f.Add([]byte{})
	f.Add(fuzzLogBytesBadQuery(f))
	// Image 5 judged relevant and then irrelevant, which a map decoded as
	// {5: −1} and re-encoded to 48 bytes where the file had 56; and a
	// judgment of 257, which an int8 read as relevant.
	f.Add(recordsFile(f, KindLog, words(8), words(1, 0, 2, 5, 1, 5, -1)))
	f.Add(recordsFile(f, KindLog, words(8), words(1, 0, 1, 5, 257)))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded is a log AddSession builds: every session is one
		// a log of the declared collection takes.
		for _, s := range log.Sessions() {
			if _, err := feedbacklog.NewLog(log.NumImages()).AddSession(s); err != nil {
				t.Fatalf("decoded log holds an invalid session: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, log); err != nil {
			t.Fatalf("re-encode decoded log: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("a decoded log of %d bytes re-encodes to %d other ones", len(data), buf.Len())
		}
	})
}

// FuzzFeaturesRoundTrip is the same property for the feature store:
// decoding never panics, and what decodes re-encodes to the same bytes.
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
	// A dim field of 2^29: in uint32 arithmetic the record size check
	// 8+8*dim wraps to 8, the size of this record's payload.
	f.Add(recordsFile(f, KindFeatures, words(0, 1<<29)))
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
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("a decoded feature store of %d bytes re-encodes to %d other ones", len(data), buf.Len())
		}
	})
}

// FuzzSnapshotRoundTrip is the same property for the combined engine
// snapshot store, whose accepted descriptors are also read back by their
// file offsets (snapshotDescriptors).
func FuzzSnapshotRoundTrip(f *testing.F) {
	log := feedbacklog.NewLog(3)
	if _, err := log.AddSession(feedbacklog.Session{QueryImage: 1, Judgments: map[int]feedbacklog.Judgment{0: feedbacklog.Relevant, 2: feedbacklog.Irrelevant}}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotAt(&buf, kernel.NewShardedSet([]linalg.Vector{{1.5, -2}, {0, 0.25}, {3, 4}}, 0), log, 0); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	corrupt := append([]byte(nil), valid...)
	corrupt[12] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})
	// A sequence of 0 in the 20-byte meta record, which the writer writes
	// in the 12-byte form.
	f.Add(recordsFile(f, KindSnapshot, words(1, 1, 0, 0, 0), make([]byte, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, log, seq, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := storeHoldsRows(set, snapshotDescriptors(data, set.Len(), set.Dim())); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshotAt(&buf, set, log, seq); err != nil {
			t.Fatalf("re-encode decoded snapshot: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("a decoded snapshot of %d bytes re-encodes to %d other ones", len(data), buf.Len())
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
	set, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournalOver(path, set, fblog, JournalOptions{Fsync: FsyncOff})
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
		set, fblog := journalBase(8, 3)
		j, set, replay, err := OpenJournalOver(path, set, fblog, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			return
		}
		if set.Len() != fblog.NumImages() {
			t.Fatalf("replay desynced: %d descriptors, log covers %d", set.Len(), fblog.NumImages())
		}
		for _, s := range fblog.Sessions() {
			if _, err := feedbacklog.NewLog(fblog.NumImages()).AddSession(s); err != nil {
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
		set2, fblog2 := journalBase(8, 3)
		_, set2, replay2, err := OpenJournalOver(path, set2, fblog2, JournalOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("re-replay of repaired journal: %v", err)
		}
		if replay2.TornTailBytes != 0 {
			t.Fatalf("repaired journal still has a torn tail: %+v", replay2)
		}
		if replay2.Records != replay.Records+1 || replay2.Sessions != replay.Sessions+1 || set2.Len() != set.Len() {
			t.Fatalf("re-replay diverged: %+v then %+v", replay, replay2)
		}
	})
}
