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
	"slices"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
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

// ErrCorrupt is returned when a record fails its checksum or the file
// structure is malformed.
var ErrCorrupt = errors.New("storage: corrupt file")

func writeHeader(w io.Writer, kind uint16) error {
	if _, err := w.Write(magic[:]); err != nil {
		return fmt.Errorf("storage: write magic: %w", err)
	}
	var buf [4]byte
	binary.LittleEndian.PutUint16(buf[0:2], formatVersion)
	binary.LittleEndian.PutUint16(buf[2:4], kind)
	if _, err := w.Write(buf[:]); err != nil {
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

func writeRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("storage: write record header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("storage: write record payload: %w", err)
	}
	return nil
}

// readRecord returns the next record payload, or io.EOF cleanly at the end
// of the file.
func readRecord(r io.Reader, maxLen uint32) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated record header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxLen {
		return nil, fmt.Errorf("%w: record length %d exceeds limit %d", ErrCorrupt, length, maxLen)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated record payload", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
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
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, KindFeatures); err != nil {
		return err
	}
	for i, f := range features {
		payload := make([]byte, 8+8*len(f))
		binary.LittleEndian.PutUint32(payload[0:4], uint32(int32(labels[i])))
		binary.LittleEndian.PutUint32(payload[4:8], uint32(len(f)))
		for j, x := range f {
			binary.LittleEndian.PutUint64(payload[8+8*j:], math.Float64bits(x))
		}
		if err := writeRecord(bw, payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFeatures reads a feature store written by WriteFeatures.
func ReadFeatures(r io.Reader) ([]linalg.Vector, []int, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, KindFeatures); err != nil {
		return nil, nil, err
	}
	var features []linalg.Vector
	var labels []int
	for {
		payload, err := readRecord(br, maxRecordLen)
		if err == io.EOF {
			return features, labels, nil
		}
		if err != nil {
			return nil, nil, err
		}
		if len(payload) < 8 {
			return nil, nil, fmt.Errorf("%w: feature record too short", ErrCorrupt)
		}
		label := int(int32(binary.LittleEndian.Uint32(payload[0:4])))
		dim := binary.LittleEndian.Uint32(payload[4:8])
		if uint32(len(payload)) != 8+8*dim {
			return nil, nil, fmt.Errorf("%w: feature record size mismatch", ErrCorrupt)
		}
		vec := make(linalg.Vector, dim)
		for j := range vec {
			vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+8*j:]))
		}
		features = append(features, vec)
		labels = append(labels, label)
	}
}

// SaveFeatures writes a feature store to the named file.
func SaveFeatures(path string, features []linalg.Vector, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteFeatures(f, features, labels); err != nil {
		return err
	}
	return f.Close()
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

// WriteLog writes a feedback log (one record per session) to w.
//
// Payload encoding per record: query(u32) category(i32) count(u32) then
// count pairs of image(u32) judgment(i8, padded to i32).
func WriteLog(w io.Writer, log *feedbacklog.Log) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, KindLog); err != nil {
		return err
	}
	// First record: collection size, so the log can be reconstructed.
	var sizeRec [4]byte
	binary.LittleEndian.PutUint32(sizeRec[:], uint32(log.NumImages()))
	if err := writeRecord(bw, sizeRec[:]); err != nil {
		return err
	}
	for _, s := range log.Sessions() {
		if err := writeRecord(bw, encodeSession(s)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeSession serializes one log session: query(u32) category(i32)
// count(u32) then count pairs of image(u32) judgment(i8, padded to i32).
// Judgments are written in ascending image order so the encoding is
// deterministic.
func encodeSession(s feedbacklog.Session) []byte {
	imgs := make([]int, 0, len(s.Judgments))
	for img := range s.Judgments {
		imgs = append(imgs, img)
	}
	slices.Sort(imgs)
	payload := make([]byte, 12+8*len(imgs))
	binary.LittleEndian.PutUint32(payload[0:4], uint32(s.QueryImage))
	binary.LittleEndian.PutUint32(payload[4:8], uint32(int32(s.TargetCategory)))
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(imgs)))
	for i, img := range imgs {
		binary.LittleEndian.PutUint32(payload[12+8*i:], uint32(img))
		binary.LittleEndian.PutUint32(payload[16+8*i:], uint32(int32(s.Judgments[img])))
	}
	return payload
}

// decodeSession parses a session payload written by encodeSession.
func decodeSession(payload []byte) (feedbacklog.Session, error) {
	if len(payload) < 12 {
		return feedbacklog.Session{}, fmt.Errorf("%w: log record too short", ErrCorrupt)
	}
	query := int(binary.LittleEndian.Uint32(payload[0:4]))
	category := int(int32(binary.LittleEndian.Uint32(payload[4:8])))
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	if len(payload) != 12+8*count {
		return feedbacklog.Session{}, fmt.Errorf("%w: log record size mismatch", ErrCorrupt)
	}
	judgments := make(map[int]feedbacklog.Judgment, count)
	for i := 0; i < count; i++ {
		img := int(binary.LittleEndian.Uint32(payload[12+8*i:]))
		j := feedbacklog.Judgment(int32(binary.LittleEndian.Uint32(payload[16+8*i:])))
		judgments[img] = j
	}
	return feedbacklog.Session{QueryImage: query, TargetCategory: category, Judgments: judgments}, nil
}

// validateSession checks a decoded session against the collection it
// claims to belong to — the same rules feedbacklog.Log.AddSession enforces
// (which is what actually guards every read path; an out-of-range query
// image used to round-trip silently and only explode much later, in the
// query path of a server that loaded the file). The fuzz targets use this
// helper to assert the invariant on whatever a decoder accepts, without
// rebuilding a log.
func validateSession(s feedbacklog.Session, numImages int) error {
	if s.QueryImage < 0 || s.QueryImage >= numImages {
		return fmt.Errorf("%w: session query image %d outside collection of %d images", ErrCorrupt, s.QueryImage, numImages)
	}
	for img := range s.Judgments {
		if img < 0 || img >= numImages {
			return fmt.Errorf("%w: session judges image %d outside collection of %d images", ErrCorrupt, img, numImages)
		}
	}
	return nil
}

// ReadLog reads a feedback log written by WriteLog.
func ReadLog(r io.Reader) (*feedbacklog.Log, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, KindLog); err != nil {
		return nil, err
	}
	sizeRec, err := readRecord(br, maxRecordLen)
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
	for {
		payload, err := readRecord(br, maxRecordLen)
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, err
		}
		session, err := decodeSession(payload)
		if err != nil {
			return nil, err
		}
		// AddSession validates the query image and every judged image
		// against the declared collection size.
		if _, err := log.AddSession(session); err != nil {
			return nil, fmt.Errorf("%w: rebuild log: %v", ErrCorrupt, err)
		}
	}
}

// SaveLog writes a feedback log to the named file.
func SaveLog(path string, log *feedbacklog.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteLog(f, log); err != nil {
		return err
	}
	return f.Close()
}

// LoadLog reads a feedback log from the named file.
func LoadLog(path string) (*feedbacklog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadLog(f)
}

// WriteSnapshotAt writes one self-contained engine snapshot to w: the visual
// descriptor of every image followed by every feedback-log session, the two
// halves a live engine needs to be reconstructed after ingesting images and
// collecting feedback (see retrieval.Engine.SnapshotWith). The log must cover
// exactly the given collection.
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
func WriteSnapshotAt(w io.Writer, visual []linalg.Vector, log *feedbacklog.Log, journalSeq uint64) error {
	if len(visual) == 0 {
		return fmt.Errorf("storage: snapshot of an empty collection")
	}
	if log == nil {
		return fmt.Errorf("storage: snapshot without a log")
	}
	if log.NumImages() != len(visual) {
		return fmt.Errorf("storage: snapshot log covers %d images, collection has %d", log.NumImages(), len(visual))
	}
	dim := len(visual[0])
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, KindSnapshot); err != nil {
		return err
	}
	meta := make([]byte, 12, 20)
	binary.LittleEndian.PutUint32(meta[0:4], uint32(len(visual)))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(dim))
	binary.LittleEndian.PutUint32(meta[8:12], uint32(log.NumSessions()))
	if journalSeq != 0 {
		meta = meta[:20]
		binary.LittleEndian.PutUint64(meta[12:20], journalSeq)
	}
	if err := writeRecord(bw, meta); err != nil {
		return err
	}
	for i, v := range visual {
		if len(v) != dim {
			return fmt.Errorf("storage: descriptor %d has dimension %d, want %d", i, len(v), dim)
		}
		payload := make([]byte, 8*dim)
		for j, x := range v {
			binary.LittleEndian.PutUint64(payload[8*j:], math.Float64bits(x))
		}
		if err := writeRecord(bw, payload); err != nil {
			return err
		}
	}
	for _, s := range log.Sessions() {
		if err := writeRecord(bw, encodeSession(s)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshotAt reads an engine snapshot and the journal sequence it
// covers (0 for snapshots written without a journal).
func ReadSnapshotAt(r io.Reader) ([]linalg.Vector, *feedbacklog.Log, uint64, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, KindSnapshot); err != nil {
		return nil, nil, 0, err
	}
	meta, err := readRecord(br, maxRecordLen)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: read snapshot meta record: %w", err)
	}
	if len(meta) != 12 && len(meta) != 20 {
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
	// Cap the preallocation: the image count is untrusted until the records
	// actually arrive, and each one costs at least a record header.
	prealloc := images
	if prealloc > 4096 {
		prealloc = 4096
	}
	visual := make([]linalg.Vector, 0, prealloc)
	for i := 0; i < images; i++ {
		payload, err := readRecord(br, maxRecordLen)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%w: truncated snapshot collection", ErrCorrupt)
		}
		if len(payload) != 8*dim {
			return nil, nil, 0, fmt.Errorf("%w: snapshot descriptor size mismatch", ErrCorrupt)
		}
		vec := make(linalg.Vector, dim)
		for j := range vec {
			vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*j:]))
		}
		visual = append(visual, vec)
	}
	log := feedbacklog.NewLog(images)
	for i := 0; i < sessions; i++ {
		payload, err := readRecord(br, maxRecordLen)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%w: truncated snapshot log", ErrCorrupt)
		}
		session, err := decodeSession(payload)
		if err != nil {
			return nil, nil, 0, err
		}
		if _, err := log.AddSession(session); err != nil {
			return nil, nil, 0, fmt.Errorf("%w: rebuild snapshot log: %v", ErrCorrupt, err)
		}
	}
	if _, err := readRecord(br, maxRecordLen); err != io.EOF {
		return nil, nil, 0, fmt.Errorf("%w: trailing data after snapshot", ErrCorrupt)
	}
	return visual, log, journalSeq, nil
}

// SaveSnapshotAt writes an engine snapshot to the named file atomically and
// durably (see installStaged), so a crash mid-write never destroys the
// previous snapshot. It records the journal sequence the state covers (see
// WriteSnapshotAt), so crash replay can tell which journal records the
// snapshot already contains.
func SaveSnapshotAt(path string, visual []linalg.Vector, log *feedbacklog.Log, journalSeq uint64) error {
	f, err := installStaged(path, "snapshot", func(w io.Writer) error {
		return WriteSnapshotAt(w, visual, log, journalSeq)
	})
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("storage: close snapshot: %w", cerr)
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

// LoadSnapshotAt reads an engine snapshot from the named file, with the
// journal sequence it covers; pass the sequence to OpenJournal (JournalOptions.SnapshotSeq) so
// replay skips the records the snapshot already contains.
func LoadSnapshotAt(path string) ([]linalg.Vector, *feedbacklog.Log, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadSnapshotAt(f)
}
