package storage

import (
	"lrfcsvm/internal/faultinject"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
)

// journalModel is what a journal is, by definition: the collection it was
// first opened over, the records it acknowledged, and the mark the snapshot
// covers. Sequences are never skipped, so records[i] has sequence i+1. What a
// reopen replays, skips and continues from follows from these, the file's
// first sequence and the zeros a failed rollback left after its last record.
type journalModel struct {
	base     []linalg.Vector
	records  []modelRecord
	mark     int          // the sequence the snapshot covers
	fileBase int          // the file's first sequence: compaction dropped those before it
	junk     int64        // zeros after the file's last record, from a rollback that failed
	broken   bool         // a rollback failed: every append is refused until a reopen
	dirty    bool         // records appended since the last sync
	stats    JournalStats // since the last open
}

// modelRecord is one acknowledged mutation: a session or an image batch.
type modelRecord struct {
	session *feedbacklog.Session
	images  []linalg.Vector
}

// framed is the record's size in the file: the 12-byte frame, the kind
// byte, then a session's query, category, count and 8 bytes per judgment,
// or a batch's flags, count, dimension and 8 bytes per value.
func (r modelRecord) framed() int64 {
	if r.session != nil {
		return journalRecordHeaderLen + 13 + 8*int64(len(r.session.Judgments))
	}
	return journalRecordHeaderLen + 10 + 8*int64(len(r.images)*len(r.images[0]))
}

// state is the collection and log with the first upTo records applied: the
// snapshot at sequence upTo.
func (m *journalModel) state(upTo int) ([]linalg.Vector, *feedbacklog.Log) {
	rows := append([]linalg.Vector(nil), m.base...)
	log := feedbacklog.NewLog(len(rows))
	for _, r := range m.records[:upTo] {
		if r.session != nil {
			if _, err := log.AddSession(*r.session); err != nil {
				panic(err) // the driver draws sessions over the collection they extend
			}
			continue
		}
		rows = append(rows, r.images...)
		log.GrowImages(len(r.images))
	}
	return rows, log
}

// offsets are where the file's records start, then where the last one ends.
func (m *journalModel) offsets() []int64 {
	offs := []int64{emptyJournalSize}
	for _, r := range m.records[m.fileBase-1:] {
		offs = append(offs, offs[len(offs)-1]+r.framed())
	}
	return offs
}

// size is the journal's end: the end of its last record.
func (m *journalModel) size() int64 { offs := m.offsets(); return offs[len(offs)-1] }

// append is an append with the fault armed (nil for none): whether it is
// acknowledged, and what it leaves behind.
func (m *journalModel) append(r modelRecord, armed *faultinject.Plan, always bool) bool {
	if m.broken {
		return false
	}
	if armed != nil {
		if armed.FailSyncFrom > 0 {
			m.stats.Syncs++
			m.stats.SyncFailures++
		}
		if armed.FailTruncates != nil {
			m.broken, m.junk = true, r.framed()
		}
		return false
	}
	m.records = append(m.records, r)
	if always {
		m.stats.Syncs++
	} else {
		m.dirty = true
	}
	m.stats.Records++
	if r.session != nil {
		m.stats.Sessions++
	} else {
		m.stats.Images += int64(len(r.images))
	}
	m.stats.Bytes = m.size()
	return true
}

// sync is Sync(): whether it flushed.
func (m *journalModel) sync() bool {
	flushed := m.dirty
	if flushed {
		m.stats.Syncs++
	}
	m.dirty = false
	return flushed
}

// compact is CompactTo(mark) after a snapshot at mark: it drops the records
// the snapshot covers, and with them anything after the last record.
func (m *journalModel) compact(mark int) {
	m.mark = mark
	if mark >= m.fileBase {
		m.fileBase, m.junk, m.dirty = mark+1, 0, false
		m.stats.Bytes = m.size()
	}
}

// reopen is the journal after a crash that left the file's records up to
// sequence kept: its replay over the snapshot at the mark, and the state it
// continues from. A file that would continue inside what the snapshot
// covers starts again after the mark.
func (m *journalModel) reopen(kept int, torn int64) ReplayStats {
	var replay ReplayStats
	for seq := m.fileBase; seq <= kept; seq++ {
		switch r := m.records[seq-1]; {
		case seq <= m.mark:
			replay.Skipped++
		case r.session != nil:
			replay.Records++
			replay.Sessions++
		default:
			replay.Records++
			replay.Images += len(r.images)
		}
	}
	replay.TornTailBytes = torn
	if kept < m.mark {
		m.fileBase = m.mark + 1
	}
	m.junk, m.broken, m.dirty = 0, false, false
	m.stats = JournalStats{Bytes: m.size()}
	return replay
}
