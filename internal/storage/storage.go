// Package storage provides the on-disk persistence layer of the CBIR
// system: record-oriented binary stores for visual feature vectors, for
// user-feedback log sessions, and for combined engine snapshots (the
// visual collection plus the log in one self-contained file, so a live
// engine that has ingested images and accumulated feedback can be persisted
// and reloaded), with CRC32-checksummed records so that partial writes and
// corruption are detected at load time.
//
// The format is deliberately simple and append-friendly:
//
//	file   := header record*
//	header := magic(4) version(u16) kind(u16)
//	record := length(u32) crc32(u32) payload(length bytes)
//
// Payload encodings are fixed-width little-endian and documented on the
// respective Write/Read functions.
//
// Every file is read through one record buffer that each record reuses, and
// written through one that each record is encoded into, so neither costs an
// allocation per record. A feature store is read either as rows
// (ReadFeatures) or straight into the sharded store the engine serves from
// (LoadFeatureSet); a snapshot's collection is always read into a store
// (LoadSnapshotSetAt) and written from one (SaveSnapshotSetAt). Each
// descriptor is decoded into its shard's block (kernel.SetBuilder), one
// allocation per shard and none per image, and the store is the one
// NewShardedSet builds over the rows, bit for bit.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// File kinds.
const (
	KindFeatures uint16 = 1
	KindLog      uint16 = 2
	KindSnapshot uint16 = 3
	KindJournal  uint16 = 4
)

// formatVersion is bumped whenever the payload encoding changes.
const formatVersion uint16 = 1

var magic = [4]byte{'L', 'R', 'F', 'C'}

// fileHeaderLen is the size of the file header (magic + version + kind).
const fileHeaderLen = 8

// ErrCorrupt is returned when a record fails its checksum or the file
// structure is malformed.
var ErrCorrupt = errors.New("storage: corrupt file")

// header is the file header of a file of the kind.
func header(kind uint16) []byte {
	h := binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), formatVersion)
	return binary.LittleEndian.AppendUint16(h, kind)
}

func writeHeader(w io.Writer, kind uint16) error {
	if _, err := w.Write(header(kind)); err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	return nil
}

func readHeader(r io.Reader, wantKind uint16) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("storage: read magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("storage: read header: %w", err)
	}
	version := binary.LittleEndian.Uint16(buf[0:2])
	kind := binary.LittleEndian.Uint16(buf[2:4])
	if version != formatVersion {
		return fmt.Errorf("storage: unsupported format version %d", version)
	}
	if kind != wantKind {
		return fmt.Errorf("storage: wrong file kind %d, want %d", kind, wantKind)
	}
	return nil
}

// recordWriter frames a file's records in one buffer that every record
// reuses: the record header, then the payload, written in one call. A writer
// asks for a payload's room (record), fills it and writes it (write), so a
// file of any number of records allocates one buffer.
type recordWriter struct {
	w   *bufio.Writer
	buf []byte
}

// newRecordWriter writes the file header of the given kind and returns the
// writer of the records after it.
func newRecordWriter(w io.Writer, kind uint16) (*recordWriter, error) {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kind); err != nil {
		return nil, err
	}
	return &recordWriter{w: bw}, nil
}

// record returns the room for the next record's payload, n bytes that the
// caller fills before it calls write.
func (rw *recordWriter) record(n int) []byte {
	if cap(rw.buf) < 8+n {
		rw.buf = make([]byte, 8+n)
	}
	rw.buf = rw.buf[:8+n]
	return rw.buf[8:]
}

// write frames and writes the payload record returned.
func (rw *recordWriter) write() error {
	payload := rw.buf[8:]
	binary.LittleEndian.PutUint32(rw.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rw.buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := rw.w.Write(rw.buf); err != nil {
		return fmt.Errorf("storage: write record: %w", err)
	}
	return nil
}

// readBufferSize is the read-ahead of a recordReader: a collection is read
// in a few hundred system calls, not one per 4 KiB.
const readBufferSize = 64 << 10

// recordReader reads a file's records through one buffer that every record
// reuses: a payload is valid until the next call, so a reader decodes what
// it keeps before it asks for the next record.
type recordReader struct {
	r   *bufio.Reader
	hdr [8]byte
	buf []byte
	// rest is how many bytes follow the records returned so far, when the
	// source tells its size (Size, as io.SectionReader and bytes.Reader do);
	// 0 when it does not.
	rest int64
}

// newRecordReader checks the file header against the wanted kind and returns
// the reader of the records after it.
func newRecordReader(r io.Reader, kind uint16) (*recordReader, error) {
	br := bufio.NewReaderSize(r, readBufferSize)
	if err := readHeader(br, kind); err != nil {
		return nil, err
	}
	rr := &recordReader{r: br}
	if sized, ok := r.(interface{ Size() int64 }); ok {
		rr.rest = sized.Size() - fileHeaderLen
	}
	return rr, nil
}

// reserveLog sizes log once for the session records left in the source, so
// decoding them copies no cells on the way: a record is at least an 8-byte
// frame, a 12-byte head and one 8-byte judgment, so they hold at most rest/28
// sessions — of which the caller knows sessions, or 0 — and rest/8 judgments.
func (rr *recordReader) reserveLog(log *feedbacklog.Log, sessions int) {
	if rr.rest > 0 {
		log.Reserve(min(sessions, int(rr.rest/28)), int(rr.rest/8))
	}
}

// next returns the next record payload, or io.EOF cleanly at the end of the
// file.
func (rr *recordReader) next() ([]byte, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated record header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(rr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(rr.hdr[4:8])
	if length > maxRecordLen {
		return nil, fmt.Errorf("%w: record length %d exceeds limit %d", ErrCorrupt, length, maxRecordLen)
	}
	if cap(rr.buf) < int(length) {
		rr.buf = make([]byte, length)
	}
	payload := rr.buf[:length]
	rr.rest -= 8 + int64(length)
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated record payload", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// encodeDescriptor writes a descriptor's values as little-endian float64s.
func encodeDescriptor(dst []byte, v linalg.Vector) {
	for j, x := range v {
		binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(x))
	}
}

// decodeDescriptor fills dst from the little-endian float64s of src and
// returns it.
func decodeDescriptor(dst linalg.Vector, src []byte) linalg.Vector {
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
	}
	return dst
}

// maxRecordLen bounds a single record (16 MiB) as a corruption guard.
const maxRecordLen = 16 << 20

// WriteFeatures writes feature vectors (one record per image, in image-index
// order) together with their category labels to w.
//
// Payload encoding per record: label(i32) dim(u32) dim*float64.
func WriteFeatures(w io.Writer, features []linalg.Vector, labels []int) error {
	if len(features) != len(labels) {
		return fmt.Errorf("storage: %d features but %d labels", len(features), len(labels))
	}
	rw, err := newRecordWriter(w, KindFeatures)
	if err != nil {
		return err
	}
	for i, f := range features {
		payload := rw.record(8 + 8*len(f))
		binary.LittleEndian.PutUint32(payload[0:4], uint32(int32(labels[i])))
		binary.LittleEndian.PutUint32(payload[4:8], uint32(len(f)))
		encodeDescriptor(payload[8:], f)
		if err := rw.write(); err != nil {
			return err
		}
	}
	return rw.w.Flush()
}

// readFeatures reads a feature store written by WriteFeatures record by
// record, handing row each image's index, label and descriptor: dim
// little-endian float64s, valid until the next record.
func readFeatures(r io.Reader, row func(i, label int, desc []byte) error) error {
	rr, err := newRecordReader(r, KindFeatures)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		payload, err := rr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(payload) < 8 {
			return fmt.Errorf("%w: feature record too short", ErrCorrupt)
		}
		label := int(int32(binary.LittleEndian.Uint32(payload[0:4])))
		// int arithmetic: in uint32, 8+8*dim wraps to 8 at dim = 2^29.
		dim := int(binary.LittleEndian.Uint32(payload[4:8]))
		if len(payload) != 8+8*dim {
			return fmt.Errorf("%w: feature record size mismatch", ErrCorrupt)
		}
		if err := row(i, label, payload[8:]); err != nil {
			return err
		}
	}
}

// ReadFeatures reads a feature store written by WriteFeatures. Its records
// may differ in dimension.
func ReadFeatures(r io.Reader) ([]linalg.Vector, []int, error) {
	var features []linalg.Vector
	var labels []int
	err := readFeatures(r, func(_, label int, desc []byte) error {
		features = append(features, decodeDescriptor(make(linalg.Vector, len(desc)/8), desc))
		labels = append(labels, label)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return features, labels, nil
}

// readFeatureSet reads a feature store straight into a sharded store (see
// LoadFeatureSet). size is the file's length in bytes, 0 if unknown: it
// bounds how many records the file holds, which sizes the store's blocks.
func readFeatureSet(r io.Reader, size int64) (*kernel.ShardedSet, error) {
	var b *kernel.SetBuilder
	dim := 0
	err := readFeatures(r, func(i, _ int, desc []byte) error {
		if b == nil {
			dim = len(desc) / 8
			b = kernel.NewSetBuilder(dim, 0, int((size-fileHeaderLen)/int64(16+len(desc))))
		}
		if len(desc) != 8*dim {
			return fmt.Errorf("storage: image %d has dimension %d, collection has %d", i, len(desc)/8, dim)
		}
		decodeDescriptor(b.Next(), desc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b == nil {
		return kernel.NewShardedSet(nil, 0), nil
	}
	return b.Set(), nil
}

// SaveFeatures writes a feature store to the named file, replacing any
// previous one only once the new one is complete (see installStaged).
func SaveFeatures(path string, features []linalg.Vector, labels []int) error {
	return save(path, "features", func(w io.Writer) error { return WriteFeatures(w, features, labels) })
}

// LoadFeatures reads a feature store from the named file.
func LoadFeatures(path string) ([]linalg.Vector, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadFeatures(f)
}

// LoadFeatureSet reads the descriptors of the named feature store straight
// into a sharded store with the default shard size, one block per shard and
// nothing per image; the labels are skipped. Unlike ReadFeatures it refuses
// a record whose dimension differs from the first one's, naming the image
// and both dimensions. The store is what kernel.NewShardedSet builds over
// ReadFeatures's rows, bit for bit.
func LoadFeatureSet(path string) (*kernel.ShardedSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	return readFeatureSet(f, info.Size())
}

// WriteLog writes a feedback log (one record per session) to w.
//
// Payload encoding per record: query(u32) category(i32) count(u32) then
// count pairs of image(u32) judgment(i8, padded to i32).
func WriteLog(w io.Writer, log *feedbacklog.Log) error {
	rw, err := newRecordWriter(w, KindLog)
	if err != nil {
		return err
	}
	// First record: collection size, so the log can be reconstructed.
	binary.LittleEndian.PutUint32(rw.record(4), uint32(log.NumImages()))
	if err := rw.write(); err != nil {
		return err
	}
	if err := writeSessions(rw, log); err != nil {
		return err
	}
	return rw.w.Flush()
}

// writeSessions writes one record per log session, each appended straight
// into the record buffer from the log's rows.
func writeSessions(rw *recordWriter, log *feedbacklog.Log) error {
	for s := range log.NumSessions() {
		query, category, judged := log.Row(s)
		rw.record(0) // the buffer holds the header's room alone
		rw.buf = appendSession(rw.buf, query, category, judged)
		if err := rw.write(); err != nil {
			return err
		}
	}
	return nil
}

// appendSession appends the encoding of one log session to dst: query(u32)
// category(i32) count(u32) then count pairs of image(u32) judgment(i8,
// padded to i32), judged as a log row holds them, in ascending image order,
// so the encoding is deterministic.
func appendSession(dst []byte, query, category int, judged []sparse.Entry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(query))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(category)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(judged)))
	for _, e := range judged {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Index))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.Value)))
	}
	return dst
}

// decodeSession parses a session payload written by appendSession, and only
// that — images strictly ascending, judgments ±1, so it re-encodes the same —
// into log, whose AddRow checks the images against the collection: a session
// it refuses contradicts the state its record extends, and is corrupt.
func decodeSession(payload []byte, log *feedbacklog.Log) error {
	if len(payload) < 12 {
		return fmt.Errorf("%w: log record too short", ErrCorrupt)
	}
	query := int(binary.LittleEndian.Uint32(payload[0:4]))
	category := int(int32(binary.LittleEndian.Uint32(payload[4:8])))
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	if len(payload) != 12+8*count {
		return fmt.Errorf("%w: log record size mismatch", ErrCorrupt)
	}
	var buf [64]sparse.Entry // a feedback page is 20
	row, prev := buf[:0], -1
	for i := 0; i < count; i++ {
		img := int(binary.LittleEndian.Uint32(payload[12+8*i:]))
		j := int32(binary.LittleEndian.Uint32(payload[16+8*i:]))
		if img <= prev || j != int32(feedbacklog.Relevant) && j != int32(feedbacklog.Irrelevant) {
			return fmt.Errorf("%w: session judges image %d as %d after image %d", ErrCorrupt, img, j, prev)
		}
		row, prev = append(row, sparse.Entry{Index: img, Value: float64(j)}), img
	}
	if _, err := log.AddRow(query, category, row); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// ReadLog reads a feedback log written by WriteLog.
func ReadLog(r io.Reader) (*feedbacklog.Log, error) {
	rr, err := newRecordReader(r, KindLog)
	if err != nil {
		return nil, err
	}
	sizeRec, err := rr.next()
	if err != nil {
		return nil, fmt.Errorf("storage: read log size record: %w", err)
	}
	if len(sizeRec) != 4 {
		return nil, fmt.Errorf("%w: bad log size record", ErrCorrupt)
	}
	numImages := int(binary.LittleEndian.Uint32(sizeRec))
	if numImages <= 0 {
		return nil, fmt.Errorf("%w: non-positive collection size", ErrCorrupt)
	}
	log := feedbacklog.NewLog(numImages)
	rr.reserveLog(log, 0)
	for {
		payload, err := rr.next()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		if err := decodeSession(payload, log); err != nil {
			return nil, err
		}
	}
}

// SaveLog writes a feedback log to the named file, replacing any previous
// one only once the new one is complete (see installStaged).
func SaveLog(path string, log *feedbacklog.Log) error {
	return save(path, "log", func(w io.Writer) error { return WriteLog(w, log) })
}

// LoadLog reads a feedback log from the named file, read as a section of
// its size, which sizes the log's storage once.
func LoadLog(path string) (*feedbacklog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	return ReadLog(io.NewSectionReader(f, 0, info.Size()))
}

// WriteSnapshotAt writes one self-contained engine snapshot to w: the visual
// descriptor of every image of the store followed by every feedback-log
// session, the two halves a live engine needs to be reconstructed after
// ingesting images and collecting feedback (see retrieval.Engine.SnapshotWith).
// The log must cover exactly the store's collection.
//
// Layout after the file header: a meta record images(u32) dim(u32)
// sessions(u32), then one record of dim float64 per image, then one session
// record per log session (encoding as in WriteLog).
//
// journalSeq is the write-ahead journal sequence the state covers (see
// Journal.LastSeq; 0 without a journal): it is recorded in the meta record
// (appended as a u64; a zero sequence keeps the original 12-byte meta
// encoding) so that a replay of snapshot + journal can skip the records the
// snapshot already contains — regardless of whether the journal was compacted
// before or after the crash.
func WriteSnapshotAt(w io.Writer, set *kernel.ShardedSet, log *feedbacklog.Log, journalSeq uint64) error {
	if set.Len() == 0 {
		return fmt.Errorf("storage: snapshot of an empty collection")
	}
	if log == nil {
		return fmt.Errorf("storage: snapshot without a log")
	}
	if log.NumImages() != set.Len() {
		return fmt.Errorf("storage: snapshot log covers %d images, collection has %d", log.NumImages(), set.Len())
	}
	dim := set.Dim()
	rw, err := newRecordWriter(w, KindSnapshot)
	if err != nil {
		return err
	}
	metaLen := 12
	if journalSeq != 0 {
		metaLen = 20
	}
	meta := rw.record(metaLen)
	binary.LittleEndian.PutUint32(meta[0:4], uint32(set.Len()))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(dim))
	binary.LittleEndian.PutUint32(meta[8:12], uint32(log.NumSessions()))
	if journalSeq != 0 {
		binary.LittleEndian.PutUint64(meta[12:20], journalSeq)
	}
	if err := rw.write(); err != nil {
		return err
	}
	for i := range set.Len() {
		encodeDescriptor(rw.record(8*dim), linalg.Vector(set.Point(i)))
		if err := rw.write(); err != nil {
			return err
		}
	}
	if err := writeSessions(rw, log); err != nil {
		return err
	}
	return rw.w.Flush()
}

// readSnapshot reads an engine snapshot written by WriteSnapshotAt, its
// collection straight into a sharded store with the default shard size. The
// meta record's image count is untrusted until the records arrive: it only
// sizes the builder, which reserves no more than the rows delivered.
func readSnapshot(r io.Reader) (*kernel.ShardedSet, *feedbacklog.Log, uint64, error) {
	rr, err := newRecordReader(r, KindSnapshot)
	if err != nil {
		return nil, nil, 0, err
	}
	meta, err := rr.next()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: read snapshot meta record: %w", err)
	}
	if len(meta) != 12 && (len(meta) != 20 || binary.LittleEndian.Uint64(meta[12:20]) == 0) { // a zero sequence is written short
		return nil, nil, 0, fmt.Errorf("%w: bad snapshot meta record", ErrCorrupt)
	}
	images := int(binary.LittleEndian.Uint32(meta[0:4]))
	dim := int(binary.LittleEndian.Uint32(meta[4:8]))
	sessions := int(binary.LittleEndian.Uint32(meta[8:12]))
	var journalSeq uint64
	if len(meta) == 20 {
		journalSeq = binary.LittleEndian.Uint64(meta[12:20])
	}
	if images <= 0 || dim <= 0 || uint32(dim) > maxRecordLen/8 {
		return nil, nil, 0, fmt.Errorf("%w: implausible snapshot shape %dx%d", ErrCorrupt, images, dim)
	}
	// A file that ends before a record the meta record announced is
	// truncated; a damaged record says how.
	b := kernel.NewSetBuilder(dim, 0, images)
	for i := 0; i < images; i++ {
		payload, err := rr.next()
		if err == io.EOF {
			err = fmt.Errorf("%w: truncated snapshot collection", ErrCorrupt)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if len(payload) != 8*dim {
			return nil, nil, 0, fmt.Errorf("%w: snapshot descriptor size mismatch", ErrCorrupt)
		}
		decodeDescriptor(b.Next(), payload)
	}
	log := feedbacklog.NewLog(images)
	rr.reserveLog(log, sessions)
	for i := 0; i < sessions; i++ {
		payload, err := rr.next()
		if err == io.EOF {
			err = fmt.Errorf("%w: truncated snapshot log", ErrCorrupt)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if err := decodeSession(payload, log); err != nil {
			return nil, nil, 0, err
		}
	}
	if _, err := rr.next(); err != io.EOF {
		return nil, nil, 0, fmt.Errorf("%w: trailing data after snapshot", ErrCorrupt)
	}
	return b.Set(), log, journalSeq, nil
}

// SaveSnapshotSetAt writes an engine snapshot of the store and the log to the
// named file atomically and durably (see installStaged), so a crash mid-write
// never destroys the previous snapshot; journalSeq as in WriteSnapshotAt.
func SaveSnapshotSetAt(path string, set *kernel.ShardedSet, log *feedbacklog.Log, journalSeq uint64) error {
	return save(path, "snapshot", func(w io.Writer) error { return WriteSnapshotAt(w, set, log, journalSeq) })
}

// SaveSnapshotAt is SaveSnapshotSetAt for a collection kept as rows, which it
// copies into a store first. Only bench/ saves rows; the form ends once
// bench/ calls SaveSnapshotSetAt.
func SaveSnapshotAt(path string, visual []linalg.Vector, log *feedbacklog.Log, journalSeq uint64) error {
	set, err := rowsSet(visual)
	if err != nil {
		return err
	}
	return SaveSnapshotSetAt(path, set, log, journalSeq)
}

// rowsSet copies the row adapters' rows (SaveSnapshotAt, OpenJournal) into a
// store with the default shard size, refusing rows of more than one
// dimension, which a store cannot hold.
func rowsSet(rows []linalg.Vector) (*kernel.ShardedSet, error) {
	for i, v := range rows {
		if len(v) != len(rows[0]) {
			return nil, fmt.Errorf("storage: descriptor %d has dimension %d, want %d", i, len(v), len(rows[0]))
		}
	}
	return kernel.NewShardedSet(rows, 0), nil
}

// save installs what write produces at path (see installStaged) and closes
// the installed file.
func save(path, what string, write func(io.Writer) error) error {
	f, err := installStaged(path, what, write)
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("storage: close %s: %w", what, cerr)
		}
	}
	return err
}

// installStaged replaces the file at path with what write produces: staged
// in a temporary file in the same directory (os.TempDir is often another
// filesystem, where the rename would fail with EXDEV), synced, renamed over
// path, and then the directory is synced, because POSIX makes a rename
// durable only then. A crash at any point leaves the old file or the new
// one. Once the rename has happened the installed file is returned, open;
// the error is then that of the directory sync, after which a power loss
// may still bring the old file back.
func installStaged(path, what string, write func(io.Writer) error) (*os.File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("storage: stage %s: %w", what, err)
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return nil, err
	}
	// Flush to stable storage before the rename: otherwise a power loss
	// could install a file whose data never hit the disk, destroying the
	// previous good one.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("storage: sync %s: %w", what, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("storage: install %s: %w", what, err)
	}
	if err := syncDir(dir); err != nil {
		return tmp, fmt.Errorf("storage: install %s: %w", what, err)
	}
	return tmp, nil
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable. Its errors name the directory.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadSnapshotSetAt reads an engine snapshot from the named file, its
// collection as a sharded store with the default shard size (one block per
// shard and nothing per image, what kernel.NewShardedSet builds over the
// rows, bit for bit), and the journal sequence it covers: pass the sequence
// to OpenJournalOver (JournalOptions.SnapshotSeq) so replay skips the records
// the snapshot already contains. The file is read as a section of its size,
// which sizes the log's storage once.
func LoadSnapshotSetAt(path string) (*kernel.ShardedSet, *feedbacklog.Log, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	return readSnapshot(io.NewSectionReader(f, 0, info.Size()))
}
