// Write-ahead feedback journal: the durability layer between two engine
// snapshots. Every committed feedback session and every ingested image batch
// is appended as one checksummed record before it is applied to the
// in-memory engine, so the accumulated log — the system's most valuable
// state — survives a crash, OOM kill or power loss, not just a graceful
// shutdown. Startup replays snapshot + journal tail and reconstructs the
// pre-crash in-memory state exactly; the snapshotter (see snapshotter.go)
// periodically folds the journal into a fresh snapshot and compacts it,
// bounding replay time.
//
// The journal frames records as length(u32) hcrc(u32) pcrc(u32) payload
// under the KindJournal file header — hcrc checksums the length field so a
// bit-rotted length cannot swallow the records after it, pcrc checksums
// the payload. Every data record carries an implicit sequence number: the
// file's first record is a base record holding baseSeq, and the i-th data
// record after it has sequence baseSeq+i. Sequences are assigned once,
// never reused, and survive compaction (compaction drops a prefix and
// advances baseSeq). A snapshot records the sequence it covers
// (SaveSnapshotSetAt), so replay skips records the snapshot already contains
// — a crash between snapshot installation and journal compaction can
// therefore never double-apply a record, and a journal compacted beyond
// what the snapshot covers is detected as a mismatch instead of silently
// losing records. Record payloads:
//
//	base record:    kind(1)=3 baseSeq(u64)
//	session record: kind(1)=1 then the appendSession payload
//	images record:  kind(1)=2 flags(1) count(u32) dim(u32) count*dim*float64
//
// An image batch larger than one record allows is split into a group of
// chunk records; the last carries the final-chunk flag, and replay applies
// a group only when complete — a crash between chunks is a torn
// (truncatable, unacknowledged) tail, never a partial ingestion.
//
// Failure discipline: a framing failure at the very end of the file — a
// record the file ends in the middle of, a zero-filled tail, or a final
// record whose payload sectors never became durable (header intact,
// checksum wrong, nothing after it) — is the torn tail of an interrupted
// append: replay stops there and OpenJournalOver truncates the file back to
// the last intact record. A failed record with intact data after it, or
// an intact record whose content contradicts the replayed state, cannot
// be a torn append; it is genuine corruption and surfaces as ErrCorrupt
// without truncating anything, so acknowledged records are never silently
// discarded.
//
// A failed append is truncated back out. When that truncate fails too, the
// journal refuses every later append and overwrites the failed extent with
// zeros, which replay drops as a zero-filled tail. If the zeros cannot be
// written either, a record whose write failed after its last byte stays
// whole in the file, and the next start applies a mutation its caller was
// refused.
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
	"sync"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// journalRecordHeaderLen is the journal's record frame: length(u32),
// header-crc(u32, over the length bytes), payload-crc(u32). The header CRC
// is what lets replay tell a bit-rotted length field (which would otherwise
// swallow every following record as "payload") from a genuinely torn
// append — see readJournalRecord.
const journalRecordHeaderLen = 12

// journalBaseRecordLen is the framed size of the base record (record header
// + kind byte + u64 sequence).
const journalBaseRecordLen = journalRecordHeaderLen + 9

// emptyJournalSize is the size of a journal holding no data records: the
// file header plus the base record.
const emptyJournalSize = fileHeaderLen + journalBaseRecordLen

// Journal entry kinds (first payload byte of every record).
const (
	journalEntrySession byte = 1
	journalEntryImages  byte = 2
	journalEntryBase    byte = 3
)

// journalFlagFinalChunk marks the last record of a (possibly chunked)
// image-batch group; replay applies a group only when its final chunk is
// present, so a crash between chunk appends can never surface a partial
// ingestion the caller was never acknowledged for.
const journalFlagFinalChunk byte = 1

// errTornTail distinguishes end-of-file framing failures (an interrupted
// append, recoverable by truncation) from ErrCorrupt inside the replay
// loop. errZeroHeader marks an all-zero record header — torn tail only if
// everything after it is zero too (a zero-filled region after power loss);
// with non-zero data following it is corruption.
var (
	errTornTail   = errors.New("storage: torn journal tail")
	errZeroHeader = errors.New("storage: zero-filled record header")
)

// FsyncPolicy selects when appended journal records are flushed to stable
// storage. The policy trades commit latency against the window of records an
// OS crash or power loss can lose; an application crash (including kill -9)
// loses nothing under any policy, because records are written straight to
// the file, never buffered in the process.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncInterval (the default) syncs on a background timer (syncInterval,
	// 100ms): bounded loss window, negligible per-record cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every record: no loss window, one fsync of
	// latency on every commit and ingestion.
	FsyncAlways
	// FsyncOff never syncs explicitly; the OS flushes on its own schedule.
	FsyncOff
)

// ParseFsyncPolicy maps a user-supplied string to an FsyncPolicy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval or off)", s)
	}
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// JournalOptions configures a journal. The zero value selects the defaults.
type JournalOptions struct {
	// Fsync selects the flush-to-stable-storage policy.
	Fsync FsyncPolicy
	// SnapshotSeq is the journal sequence the base state passed to
	// OpenJournalOver already covers (as returned by LoadSnapshotSetAt): records
	// with sequence <= SnapshotSeq are skipped during replay instead of
	// double-applied. 0 means the base state predates the journal (a fresh
	// import), so everything replays.
	SnapshotSeq uint64
	// WrapFile optionally wraps the journal's backing file handle (and the
	// staged file of every compaction) before use; the fault-injection
	// harness uses it to interpose failing writes, torn writes, fsync
	// errors and failing truncates. Nil uses the plain *os.File.
	WrapFile func(*os.File) File
}

// syncInterval is the background flush period under FsyncInterval.
const syncInterval = 100 * time.Millisecond

// File is the journal's view of its backing file. *os.File satisfies it;
// the fault-injection layer (internal/faultinject) wraps one to exercise
// the journal's failure paths through JournalOptions.WrapFile.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
}

// JournalStats counts what the journal has seen since it was opened.
type JournalStats struct {
	// Records, Sessions and Images count appends since open (compaction
	// does not reset them).
	Records  int64
	Sessions int64
	Images   int64
	// Bytes is the current journal file size, including the file header
	// and base record.
	Bytes int64
	// Syncs counts explicit fsyncs; SyncFailures counts the ones that
	// errored (background-interval failures would otherwise be invisible).
	Syncs        int64
	SyncFailures int64
	// AppendRetries is always 0: a failed append fails once, rolled back.
	// The field stays only because the benchmark reads it
	// (bench/replay.go:430); it goes once bench/ stops reading it.
	AppendRetries int64
}

// ReplayStats describes what OpenJournalOver recovered from an existing journal.
type ReplayStats struct {
	// Records, Sessions and Images count the applied entries. Skipped
	// counts records the snapshot already covered (sequence <=
	// JournalOptions.SnapshotSeq) and therefore not re-applied.
	Records  int
	Sessions int
	Images   int
	Skipped  int
	// TornTailBytes is how many bytes of torn trailing data were truncated
	// away (0 for a cleanly closed journal).
	TornTailBytes int64
}

// Journal is an append-only write-ahead log of engine mutations. It is safe
// for concurrent use; the retrieval engine invokes it under its mutation
// lock so journal order matches log order exactly.
type Journal struct {
	path string
	opts JournalOptions

	mu          sync.Mutex
	f           File
	size        int64
	baseSeq     uint64 // sequence of the file's first data record
	fileRecords int64  // data records currently in the file
	dirty       bool   // bytes appended since the last sync
	closed      bool
	broken      error // sticky: set when a failed append could not be rolled back
	stats       JournalStats

	stop     chan struct{} // interval syncer lifecycle (nil unless FsyncInterval)
	done     chan struct{}
	stopOnce sync.Once
}

// OpenJournalOver opens (creating if necessary) the journal at path and
// replays its records onto the given base state: set and fblog must be the
// state the journal is resumed against — a freshly loaded snapshot (pass its
// covered sequence via JournalOptions.SnapshotSeq) or the initial
// feature/log import (SnapshotSeq 0). Records the snapshot already covers
// are skipped; the rest are applied — an image batch grows the store, as
// Engine.AddImages does, and fblog; a session is appended to fblog. The grown
// store is returned with replay statistics, positioned for appending.
//
// A torn trailing record (interrupted append) is truncated away and
// reported in ReplayStats.TornTailBytes. An intact record that is invalid,
// or a journal whose retained records no longer connect to the snapshot
// (compacted past it), returns ErrCorrupt.
func OpenJournalOver(path string, set *kernel.ShardedSet, fblog *feedbacklog.Log, opts JournalOptions) (*Journal, *kernel.ShardedSet, ReplayStats, error) {
	if set.Len() == 0 {
		return nil, nil, ReplayStats{}, fmt.Errorf("storage: journal over an empty collection")
	}
	if fblog == nil {
		return nil, nil, ReplayStats{}, fmt.Errorf("storage: journal without a log")
	}
	if fblog.NumImages() != set.Len() {
		return nil, nil, ReplayStats{}, fmt.Errorf("storage: journal log covers %d images, collection has %d", fblog.NumImages(), set.Len())
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, ReplayStats{}, fmt.Errorf("storage: open journal %s: %w", path, err)
	}
	var file File = f
	if opts.WrapFile != nil {
		file = opts.WrapFile(f)
	}
	j := &Journal{path: path, opts: opts, f: file}
	set, replay, err := j.replayAndSeal(set, fblog)
	if err != nil {
		file.Close()
		return nil, nil, ReplayStats{}, err
	}
	if opts.Fsync == FsyncInterval {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.syncLoop()
	}
	return j, set, replay, nil
}

// OpenJournal is OpenJournalOver for a collection kept as rows: it copies
// them into a store and returns the grown store's rows, views into it. Only
// bench/ opens a journal over rows; the form ends once bench/ calls
// OpenJournalOver.
func OpenJournal(path string, visual []linalg.Vector, fblog *feedbacklog.Log, opts JournalOptions) (*Journal, []linalg.Vector, ReplayStats, error) {
	set, err := rowsSet(visual)
	if err != nil {
		return nil, nil, ReplayStats{}, err
	}
	j, set, replay, err := OpenJournalOver(path, set, fblog, opts)
	if err != nil {
		return nil, nil, ReplayStats{}, err
	}
	return j, set.Rows(), replay, nil
}

// replayAndSeal replays the existing journal content onto the base state,
// truncates any torn tail, and leaves the file sized and positioned for
// appending.
func (j *Journal) replayAndSeal(set *kernel.ShardedSet, fblog *feedbacklog.Log) (*kernel.ShardedSet, ReplayStats, error) {
	info, err := j.f.Stat()
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("storage: stat journal: %w", err)
	}
	size := info.Size()
	// fresh starts an empty journal, continuing the sequence the snapshot
	// ends at so future records never collide with covered ones. No data
	// record can precede a durable base record (reset syncs before any
	// append is accepted), so nothing was ever recorded. The file may have
	// just been created: its directory entry is made durable too.
	fresh := func() (*kernel.ShardedSet, ReplayStats, error) {
		if err := j.reset(j.opts.SnapshotSeq + 1); err != nil {
			return nil, ReplayStats{}, err
		}
		if err := syncDir(filepath.Dir(j.path)); err != nil {
			return nil, ReplayStats{}, fmt.Errorf("storage: create journal: %w", err)
		}
		return set, ReplayStats{TornTailBytes: size}, nil
	}
	if size < emptyJournalSize {
		// New journal — or a crash during creation left a partial header or
		// base record.
		return fresh()
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("storage: seek journal: %w", err)
	}
	br := bufio.NewReader(j.f)
	if err := readHeader(br, KindJournal); err != nil {
		return nil, ReplayStats{}, err
	}
	base, n, err := readJournalRecord(br)
	if err != nil {
		if errors.Is(err, errZeroHeader) && !j.zeroToEOF(fileHeaderLen, size) {
			return nil, ReplayStats{}, fmt.Errorf("%w: zero-filled journal base record followed by data", ErrCorrupt)
		}
		if errors.Is(err, errZeroHeader) || errors.Is(err, errTornTail) || (n > 0 && fileHeaderLen+n >= size) {
			// The base record itself was the interrupted write of the
			// initial create: nothing follows it.
			return fresh()
		}
		return nil, ReplayStats{}, fmt.Errorf("%w: journal base record: %v", ErrCorrupt, err)
	}
	if len(base) != 9 || base[0] != journalEntryBase {
		return nil, ReplayStats{}, fmt.Errorf("%w: malformed journal base record", ErrCorrupt)
	}
	j.baseSeq = binary.LittleEndian.Uint64(base[1:])
	if j.baseSeq == 0 {
		// Sequences start at 1; a zero base would make the first record
		// "covered" by any snapshot and underflow LastSeq.
		return nil, ReplayStats{}, fmt.Errorf("%w: journal base sequence 0", ErrCorrupt)
	}
	covered := j.opts.SnapshotSeq
	if j.baseSeq > covered+1 {
		// Records (covered, baseSeq) were compacted away but the snapshot
		// does not contain them: this journal belongs to a newer snapshot
		// than the one loaded.
		return nil, ReplayStats{}, fmt.Errorf("%w: journal starts at sequence %d but the snapshot covers only %d", ErrCorrupt, j.baseSeq, covered)
	}
	var replay ReplayStats
	good := int64(emptyJournalSize) // end of the last intact record
	// An image batch too large for one record spans a group of chunk
	// records; the group applies only when its final chunk is present, so a
	// crash between chunk appends surfaces as a torn (truncatable) group,
	// never as a partial ingestion the caller was not acknowledged for.
	var group [][]byte
	groupStart, groupRecords := good, int64(0)
	groupSkipped := false
	for {
		payload, n, err := readJournalRecord(br)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errZeroHeader) {
			// Torn only if the zeros run to the end of the file (the
			// zero-filled region a power loss leaves). A zeroed header with
			// real data after it is a damaged acknowledged record: refuse
			// rather than silently discard everything that follows.
			if !j.zeroToEOF(good, size) {
				return nil, ReplayStats{}, fmt.Errorf("%w: zero-filled record header followed by data", ErrCorrupt)
			}
			replay.TornTailBytes = size - good
			break
		}
		if errors.Is(err, errTornTail) || (err != nil && n > 0 && good+n >= size) {
			// The interrupted final append — either the file ends inside
			// the record, or its claimed extent reaches the end of the
			// file with a failed payload checksum (header sectors durable,
			// payload sectors zeroed by a power loss). No acknowledged
			// record can follow it, so truncating it away below is safe.
			replay.TornTailBytes = size - good
			break
		}
		if err != nil {
			// Intact data follows the failed record: this cannot be a torn
			// append — refuse rather than silently discard what comes after.
			return nil, ReplayStats{}, err
		}
		if len(payload) == 0 {
			return nil, ReplayStats{}, fmt.Errorf("%w: empty journal record", ErrCorrupt)
		}
		seq := j.baseSeq + uint64(j.fileRecords)
		skip := seq <= covered
		if len(group) > 0 && payload[0] != journalEntryImages {
			return nil, ReplayStats{}, fmt.Errorf("%w: image batch interrupted by a %d record", ErrCorrupt, payload[0])
		}
		switch {
		case payload[0] == journalEntryImages:
			if len(payload) < 2 {
				return nil, ReplayStats{}, fmt.Errorf("%w: images record too short", ErrCorrupt)
			}
			if len(group) == 0 {
				groupStart, groupSkipped = good, skip
			} else if skip != groupSkipped {
				// Snapshots are captured under the same lock that appends
				// whole groups, so coverage can never split one.
				return nil, ReplayStats{}, fmt.Errorf("%w: snapshot coverage splits an image batch", ErrCorrupt)
			}
			group = append(group, payload)
			groupRecords++
			if payload[1]&journalFlagFinalChunk != 0 {
				if groupSkipped {
					replay.Skipped += int(groupRecords)
				} else {
					set, err = applyImageGroup(group, set, fblog, &replay)
					if err != nil {
						return nil, ReplayStats{}, err
					}
					replay.Records += int(groupRecords)
				}
				group, groupRecords = nil, 0
			}
		case skip:
			replay.Skipped++
		default:
			if err := applyJournalEntry(payload, fblog, &replay); err != nil {
				return nil, ReplayStats{}, err
			}
			replay.Records++
		}
		j.fileRecords++
		good += n
	}
	if len(group) > 0 {
		// The file ends inside a chunked batch: its final chunk was never
		// written, so the whole group is the torn tail of an interrupted
		// (unacknowledged) append.
		replay.TornTailBytes = size - groupStart
		good = groupStart
		j.fileRecords -= groupRecords
	}
	if good < size {
		if err := j.f.Truncate(good); err != nil {
			return nil, ReplayStats{}, fmt.Errorf("storage: truncate torn journal tail: %w", err)
		}
	}
	j.size = good
	j.stats.Bytes = good
	if next := j.baseSeq + uint64(j.fileRecords); next <= covered {
		// A power loss dropped a journal tail the snapshot already covers:
		// every retained record is covered, and appending from `next` would
		// reuse covered sequences — the next replay would silently skip
		// freshly acknowledged records. Everything here is in the snapshot,
		// so restart the file after the covered point.
		if err := j.reset(covered + 1); err != nil {
			return nil, ReplayStats{}, err
		}
	}
	return set, replay, nil
}

// reset truncates the journal to an empty state whose next data record will
// carry the given sequence, and syncs it.
func (j *Journal) reset(nextSeq uint64) error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: reset journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: reset journal: %w", err)
	}
	if err := writeHeader(j.f, KindJournal); err != nil {
		return err
	}
	if _, err := j.f.Write(frameJournalRecord(baseRecordPayload(nextSeq))); err != nil {
		return fmt.Errorf("storage: write journal base record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync journal header: %w", err)
	}
	j.baseSeq = nextSeq
	j.fileRecords = 0
	j.size = emptyJournalSize
	j.stats.Bytes = emptyJournalSize
	return nil
}

// baseRecordPayload encodes the base record carrying the sequence of the
// file's first data record.
func baseRecordPayload(baseSeq uint64) []byte {
	payload := make([]byte, 9)
	payload[0] = journalEntryBase
	binary.LittleEndian.PutUint64(payload[1:], baseSeq)
	return payload
}

// frameJournalRecord frames one journal record: length(u32),
// header-crc(u32, over the length bytes), payload-crc(u32), payload.
func frameJournalRecord(payload []byte) []byte {
	rec := make([]byte, journalRecordHeaderLen+len(payload))
	copy(rec[journalRecordHeaderLen:], payload)
	return frameInPlace(rec)
}

// frameInPlace fills in the header of a record whose payload was built
// behind journalRecordHeaderLen reserved bytes, and returns the record.
func frameInPlace(rec []byte) []byte {
	payload := rec[journalRecordHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[0:4]))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(payload))
	return rec
}

// readJournalRecord reads one framed record, returning its payload and the
// total bytes consumed. Failures are classified: errTornTail for what an
// interrupted append or a post-power-loss filesystem leaves — a record the
// file ends in the middle of, a zero-filled tail, or a final record whose
// payload sectors were lost (valid header, bad payload checksum, at the end
// of the file: the caller checks the extent) — and ErrCorrupt for records
// whose bytes are all present but wrong. The header CRC makes the length
// field trustworthy: a bit-rotted length cannot masquerade as a torn tail
// and swallow the intact records after it. For a payload-checksum failure
// the returned size is the record's claimed extent, so the caller can tell
// an end-of-file failure from one with intact data after it.
func readJournalRecord(r io.Reader) ([]byte, int64, error) {
	var hdr [journalRecordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: record header cut short", errTornTail)
	}
	allZero := true
	for _, x := range hdr {
		if x != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// No writer produces an all-zero header (the header CRC of a zero
		// length field is non-zero): either the zero-filled region some
		// filesystems leave after power loss, or a zeroed sector mid-file —
		// the caller decides by looking at what follows.
		return nil, 0, errZeroHeader
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if crc32.ChecksumIEEE(hdr[0:4]) != binary.LittleEndian.Uint32(hdr[4:8]) {
		// The length field itself is damaged: nothing after this point can
		// be located, and a torn append cannot produce this (the header is
		// written in one piece ahead of the payload) — corruption.
		return nil, 0, fmt.Errorf("%w: record header checksum mismatch", ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint32(hdr[8:12])
	if length == 0 || length > maxRecordLen {
		// Length is header-CRC-validated, so this was written this way.
		return nil, 0, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: record payload cut short", errTornTail)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, journalRecordHeaderLen + int64(length), fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return payload, journalRecordHeaderLen + int64(length), nil
}

// applyJournalEntry applies one intact non-images record payload to the
// replayed log (image chunks are grouped and applied by applyImageGroup).
// Every failure here is ErrCorrupt: the checksum verified, so the record is
// as written and its content contradicts the state it claims to extend.
func applyJournalEntry(payload []byte, fblog *feedbacklog.Log, replay *ReplayStats) error {
	switch payload[0] {
	case journalEntrySession:
		session, err := decodeSession(payload[1:])
		if err != nil {
			return err
		}
		// AddSession validates the query image and every judged image
		// against the replayed collection; any rejection here means the
		// record contradicts the state it claims to extend.
		if _, err := fblog.AddSession(session); err != nil {
			return fmt.Errorf("%w: replay session: %v", ErrCorrupt, err)
		}
		replay.Sessions++
		return nil
	case journalEntryBase:
		return fmt.Errorf("%w: base record in the journal body", ErrCorrupt)
	default:
		return fmt.Errorf("%w: unknown journal entry kind %d", ErrCorrupt, payload[0])
	}
}

// applyImageGroup applies one complete image-batch group (every chunk up to
// and including the final-flagged one) to the replayed state: its
// descriptors are decoded into one block, which joins the store through
// kernel.ShardedSet.Grow, and fblog covers them.
func applyImageGroup(group [][]byte, set *kernel.ShardedSet, fblog *feedbacklog.Log, replay *ReplayStats) (*kernel.ShardedSet, error) {
	dim, total := set.Dim(), 0
	for _, payload := range group {
		if len(payload) < 10 {
			return nil, fmt.Errorf("%w: images record too short", ErrCorrupt)
		}
		count := int(binary.LittleEndian.Uint32(payload[2:6]))
		d := int(binary.LittleEndian.Uint32(payload[6:10]))
		if count <= 0 || d <= 0 || len(payload) != 10+8*count*d {
			return nil, fmt.Errorf("%w: images record size mismatch", ErrCorrupt)
		}
		if d != dim {
			return nil, fmt.Errorf("%w: journaled descriptors have dimension %d, collection has %d", ErrCorrupt, d, dim)
		}
		total += count
	}
	block, rows := make(linalg.Vector, total*dim), make([]linalg.Vector, 0, total)
	for _, payload := range group {
		for desc := payload[10:]; len(desc) > 0; desc = desc[8*dim:] {
			rows = append(rows, decodeDescriptor(block[len(rows)*dim:(len(rows)+1)*dim], desc))
		}
	}
	fblog.GrowImages(total)
	replay.Images += total
	return set.Grow(rows), nil
}

// AppendSession journals one committed feedback session in one allocation:
// the record's header is reserved at the front of the buffer its kind byte
// and encoding are built into, and filled in once they are. The image keys
// are sorted on the stack unless the session judges more than
// sessionKeysOnStack images.
func (j *Journal) AppendSession(s feedbacklog.Session) error {
	var keys [sessionKeysOnStack]int
	rec := make([]byte, journalRecordHeaderLen, journalRecordHeaderLen+13+8*len(s.Judgments))
	rec, _ = appendSession(append(rec, journalEntrySession), s, keys[:0])
	return j.appendAll([][]byte{frameInPlace(rec)}, func(st *JournalStats) { st.Sessions++ })
}

// sessionKeysOnStack is how many judged images AppendSession sorts without
// allocating: a feedback page is 20.
const sessionKeysOnStack = 64

// AppendImages journals one ingested image batch. All descriptors must
// share one dimension (the engine validates this before invoking the
// sink). A batch too large for a single record (maxRecordLen caps records
// as a corruption guard — replay would reject a bigger one and brick the
// journal) is split across several records, appended all-or-nothing:
// replaying the chunks grows the collection to the identical state, and a
// failure rolls every chunk of the batch back out.
func (j *Journal) AppendImages(descriptors []linalg.Vector) error {
	if len(descriptors) == 0 {
		return fmt.Errorf("storage: journal of an empty image batch")
	}
	dim := len(descriptors[0])
	perRecord := (maxRecordLen - 10) / (8 * dim)
	if perRecord < 1 {
		return fmt.Errorf("storage: descriptor dimension %d exceeds a journal record", dim)
	}
	var records [][]byte
	for start := 0; start < len(descriptors); start += perRecord {
		chunk := descriptors[start:min(start+perRecord, len(descriptors))]
		rec := make([]byte, journalRecordHeaderLen+10+8*len(chunk)*dim)
		payload := rec[journalRecordHeaderLen:]
		payload[0] = journalEntryImages
		if start+perRecord >= len(descriptors) {
			payload[1] = journalFlagFinalChunk
		}
		binary.LittleEndian.PutUint32(payload[2:6], uint32(len(chunk)))
		binary.LittleEndian.PutUint32(payload[6:10], uint32(dim))
		off := 10
		for i, d := range chunk {
			if len(d) != dim {
				return fmt.Errorf("storage: journal descriptor %d has dimension %d, want %d", start+i, len(d), dim)
			}
			for _, x := range d {
				binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(x))
				off += 8
			}
		}
		records = append(records, frameInPlace(rec))
	}
	n := int64(len(descriptors))
	return j.appendAll(records, func(st *JournalStats) { st.Images += n })
}

// appendAll writes a group of framed records all-or-nothing. Each record
// is one buffer written with one call, so a crash tears at most the final
// record — exactly what replay truncates away. Under FsyncAlways the group
// is synced once, after its last record.
// The first failed write or fsync fails the append: the whole group is
// rolled back (truncated out), so the journal never holds records whose
// caller was told the mutation failed; if even the rollback fails the
// journal declares itself broken and refuses further appends rather than
// risk diverging from the in-memory state.
func (j *Journal) appendAll(records [][]byte, count func(*JournalStats)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("storage: journal is closed")
	}
	if j.broken != nil {
		return fmt.Errorf("storage: journal is broken by an earlier failure: %w", j.broken)
	}
	end := j.size
	for _, rec := range records {
		// WriteAt pins the record to the tracked end of file, so no other
		// code path (compaction's prefix walk, replay) can misplace an
		// append by moving the shared file offset.
		if _, err := j.f.WriteAt(rec, end); err != nil {
			j.rollbackLocked(err, end+int64(len(rec)))
			return fmt.Errorf("storage: append journal record: %w", err)
		}
		end += int64(len(rec))
	}
	if j.opts.Fsync == FsyncAlways {
		j.stats.Syncs++
		if err := j.f.Sync(); err != nil {
			j.stats.SyncFailures++
			j.rollbackLocked(err, end)
			return fmt.Errorf("storage: sync journal: %w", err)
		}
	} else {
		j.dirty = true
	}
	j.size = end
	j.fileRecords += int64(len(records))
	j.stats.Bytes = j.size
	j.stats.Records += int64(len(records))
	count(&j.stats)
	return nil
}

// zeroToEOF reports whether every byte of the file from off to size is
// zero — the shape of the region a power loss leaves when file metadata
// outruns data writes.
func (j *Journal) zeroToEOF(off, size int64) bool {
	buf := make([]byte, 64<<10)
	for off < size {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		if _, err := j.f.ReadAt(buf[:n], off); err != nil {
			return false
		}
		for _, x := range buf[:n] {
			if x != 0 {
				return false
			}
		}
		off += n
	}
	return true
}

// rollbackLocked restores the journal file to its pre-append size after a
// failed write or sync, so the on-disk journal matches what the caller was
// acknowledged. A rollback that itself fails poisons the journal, and the
// failed attempt's extent, j.size up to end, is overwritten with zeros: a
// write that failed after its last byte left a whole, checksummed record
// there, which replay would apply although its caller was refused. Zeros
// run to the end of the file, so replay truncates them as a torn tail. Only
// if the zeros cannot be written either can the refused record come back at
// the next start.
func (j *Journal) rollbackLocked(cause error, end int64) {
	err := j.f.Truncate(j.size)
	if err == nil {
		return
	}
	j.broken = fmt.Errorf("rollback after %v failed: %w", cause, err)
	if _, err := j.f.WriteAt(make([]byte, end-j.size), j.size); err == nil && j.opts.Fsync == FsyncAlways {
		_ = j.f.Sync() // the journal is broken either way; this only narrows what a power loss can bring back
	}
}

// Sync flushes appended records to stable storage if any are pending.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.closed || !j.dirty {
		return nil
	}
	j.stats.Syncs++
	if err := j.f.Sync(); err != nil {
		j.stats.SyncFailures++
		return fmt.Errorf("storage: sync journal: %w", err)
	}
	j.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background flusher.
func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			// Failures are counted in the stats; the next tick or the
			// final Close sync retries.
			_ = j.Sync()
		}
	}
}

// TailBytes returns how many bytes of data records the journal currently
// holds — the quantity snapshot compaction bounds.
func (j *Journal) TailBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size - emptyJournalSize
}

// LastSeq returns the sequence of the most recently appended (or replayed)
// record — 0 if none was ever written. The retrieval engine reads it under
// its mutation lock (Engine.SnapshotWith's mark hook) so the captured state
// and the sequence it covers are exactly consistent.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.baseSeq + uint64(j.fileRecords) - 1
}

// Stats returns a copy of the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Fsync returns the journal's flush policy.
func (j *Journal) Fsync() FsyncPolicy { return j.opts.Fsync }

// CompactTo removes every record with sequence <= covered (as returned by
// LastSeq at the moment a state snapshot was captured, and recorded in that
// snapshot via SaveSnapshotSetAt): those records are covered by the snapshot
// and no longer needed for replay. Later records are preserved, and their
// sequences never change. CompactTo is idempotent — compacting to an
// already-compacted (or smaller) sequence is a no-op — and the rewrite is
// installed by installStaged, so a crash at any point leaves either the old
// or the new journal, both of which replay correctly against whichever
// snapshot generation is on disk. Had the directory sync after the rename
// failed, the journal refuses every later append.
func (j *Journal) CompactTo(covered uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("storage: journal is closed")
	}
	if covered < j.baseSeq {
		return nil // already compacted past this point
	}
	drop := covered - j.baseSeq + 1
	if drop > uint64(j.fileRecords) {
		return fmt.Errorf("storage: compaction through sequence %d, but the journal ends at %d", covered, j.baseSeq+uint64(j.fileRecords)-1)
	}
	// Walk the dropped prefix to find the byte offset of the first kept
	// record. The prefix is what compaction discards — bounded by the
	// snapshot cadence, not by uptime.
	if _, err := j.f.Seek(emptyJournalSize, io.SeekStart); err != nil {
		return fmt.Errorf("storage: seek journal: %w", err)
	}
	br := bufio.NewReader(io.LimitReader(j.f, j.size-emptyJournalSize))
	tailOff := int64(emptyJournalSize)
	for i := uint64(0); i < drop; i++ {
		_, n, err := readJournalRecord(br)
		if err != nil {
			return fmt.Errorf("storage: walk journal prefix: %w", err)
		}
		tailOff += n
	}
	tail := make([]byte, j.size-tailOff)
	if _, err := j.f.ReadAt(tail, tailOff); err != nil {
		return fmt.Errorf("storage: read journal tail: %w", err)
	}
	tmp, err := installStaged(j.path, "compacted journal", func(w io.Writer) error {
		if err := writeHeader(w, KindJournal); err != nil {
			return err
		}
		if _, err := w.Write(slices.Concat(frameJournalRecord(baseRecordPayload(covered+1)), tail)); err != nil {
			return fmt.Errorf("storage: write compacted journal: %w", err)
		}
		return nil
	})
	if tmp == nil {
		return err
	}
	if err != nil {
		// The rename may not survive a power loss, which would bring the old
		// journal back without the records appended from here on: refuse them.
		j.broken = err
	}
	j.f.Close()
	// The staged file becomes the live journal; give the fault-injection
	// wrapper (if any) the same grip on it the original handle had.
	j.f = tmp
	if j.opts.WrapFile != nil {
		j.f = j.opts.WrapFile(tmp)
	}
	j.baseSeq = covered + 1
	j.fileRecords -= int64(drop)
	j.size = emptyJournalSize + int64(len(tail))
	j.stats.Bytes = j.size
	j.dirty = false
	return err
}

// Close flushes pending records, stops the background syncer and closes the
// file. Further appends fail. Close is idempotent.
func (j *Journal) Close() error {
	if j.stop != nil {
		j.stopOnce.Do(func() { close(j.stop) })
		<-j.done
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("storage: close journal: %w", cerr)
	}
	return err
}
