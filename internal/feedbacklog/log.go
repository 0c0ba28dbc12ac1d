// Package feedbacklog implements the user-feedback log substrate of the
// paper: log sessions, the relevance matrix R whose columns are the per-image
// log relevance vectors r_i, and a simulator that collects log sessions the
// way the paper describes collecting them from real users (Section 6.3),
// including judgment noise.
package feedbacklog

import (
	"fmt"
	"sort"

	"lrfcsvm/internal/sparse"
)

// Judgment is a user relevance judgment recorded in the log: +1 for
// relevant, -1 for irrelevant. Images not shown in a session have no
// judgment (0 in the relevance matrix).
type Judgment int8

// Judgment values.
const (
	Relevant   Judgment = 1
	Irrelevant Judgment = -1
)

// Session is one unit of user feedback: a single relevance-feedback round in
// which the user judged the images returned for a query.
type Session struct {
	// ID is the session's position in the log (assigned by Log.AddSession).
	ID int
	// QueryImage is the image index the (simulated) user used as the query.
	QueryImage int
	// TargetCategory is the semantic category the user had in mind. It is
	// metadata for analysis; the learning algorithms never see it.
	TargetCategory int
	// Judgments maps image index -> judgment for every image shown in this
	// session.
	Judgments map[int]Judgment
}

// Log is an ordered collection of feedback sessions over a fixed image
// collection. It is the log database of the paper: a relevance matrix with
// one row per session and one column per image.
type Log struct {
	numImages int
	sessions  []Session
}

// NewLog creates an empty log over a collection of numImages images.
func NewLog(numImages int) *Log {
	if numImages <= 0 {
		panic(fmt.Sprintf("feedbacklog: non-positive image count %d", numImages))
	}
	return &Log{numImages: numImages}
}

// NumImages returns the size of the image collection the log refers to.
func (l *Log) NumImages() int { return l.numImages }

// GrowImages extends the log's collection coverage by added images (appended
// at the end of the index space). Existing sessions are untouched; the new
// images simply have no judgments yet. The retrieval engine calls this when
// images are ingested into a live collection.
func (l *Log) GrowImages(added int) {
	if added < 0 {
		panic(fmt.Sprintf("feedbacklog: negative image growth %d", added))
	}
	l.numImages += added
}

// Clone returns a snapshot copy of the log: the session list is copied, so
// the original can keep growing while the clone is serialized or inspected.
// The per-session judgment maps are shared — they are treated as immutable
// once added (AddSession callers hand over ownership).
func (l *Log) Clone() *Log {
	return &Log{numImages: l.numImages, sessions: append([]Session(nil), l.sessions...)}
}

// NumSessions returns the number of recorded sessions, i.e. the
// dimensionality M of the per-image log relevance vectors.
func (l *Log) NumSessions() int { return len(l.sessions) }

// Sessions returns the recorded sessions in insertion order. The returned
// slice is shared; callers must not modify it.
func (l *Log) Sessions() []Session { return l.sessions }

// AddSession appends a session to the log, assigning its ID. Judgments that
// reference images outside the collection are rejected, as is a query image
// outside it — a session replayed from a corrupt store must not smuggle an
// out-of-range query into the log, where it would only explode much later
// in the query path.
func (l *Log) AddSession(s Session) (int, error) {
	if len(s.Judgments) == 0 {
		return 0, fmt.Errorf("feedbacklog: session with no judgments")
	}
	if s.QueryImage < 0 || s.QueryImage >= l.numImages {
		return 0, fmt.Errorf("feedbacklog: query image %d outside collection of %d images", s.QueryImage, l.numImages)
	}
	// Validate in ascending image order so a session with several bad
	// judgments reports the same error on every run — replay tooling and
	// tests compare these messages, and map order would shuffle them.
	imgs := make([]int, 0, len(s.Judgments))
	for img := range s.Judgments {
		imgs = append(imgs, img)
	}
	sort.Ints(imgs)
	for _, img := range imgs {
		if img < 0 || img >= l.numImages {
			return 0, fmt.Errorf("feedbacklog: judgment for image %d outside collection of %d images", img, l.numImages)
		}
		if j := s.Judgments[img]; j != Relevant && j != Irrelevant {
			return 0, fmt.Errorf("feedbacklog: invalid judgment %d for image %d", j, img)
		}
	}
	s.ID = len(l.sessions)
	l.sessions = append(l.sessions, s)
	return s.ID, nil
}

// RelevanceVectors returns the log relevance vectors of every image, indexed
// by image index. This is the column view of the relevance matrix R.
func (l *Log) RelevanceVectors() []*sparse.Vector {
	out := make([]*sparse.Vector, l.numImages)
	for i := range out {
		out[i] = sparse.New(len(l.sessions))
	}
	for sid, s := range l.sessions {
		// Deterministic iteration keeps the construction reproducible even
		// though map order is random: entries are set per image, and Set
		// keeps per-vector entries sorted by session index anyway.
		imgs := make([]int, 0, len(s.Judgments))
		for img := range s.Judgments {
			imgs = append(imgs, img)
		}
		sort.Ints(imgs)
		for _, img := range imgs {
			out[img].Set(sid, float64(s.Judgments[img]))
		}
	}
	return out
}

// headerSlab is how many column headers ExtendRelevanceVectors carves out of
// one allocation instead of allocating each (64 × 32 B = 2 KB). It stays a
// small size class on purpose: one slab for the whole collection — a fresh,
// ever larger large object per commit — measured 7% more peak RSS on the
// benchmark's ingest-commit workload, 2 KB slabs none (EXPERIMENTS.md, PR 13).
const headerSlab = 64

// ExtendRelevanceVectors returns the current relevance vectors of every
// image, reusing a column view previously built when the log had
// prevSessions sessions and covered len(prev) images (prev as returned by
// RelevanceVectors or an earlier ExtendRelevanceVectors call). The result is
// element-wise equal to a fresh RelevanceVectors call, but costs
// O(images + judgments added since prev) instead of O(images + all
// judgments): unchanged columns share their entry storage with prev, columns
// judged since then get their new components appended copy-on-write, and
// images added by GrowImages since prev get empty columns. When nothing
// changed, prev itself is returned, so downstream caches keyed on slice
// identity keep hitting. prev is never mutated.
func (l *Log) ExtendRelevanceVectors(prev []*sparse.Vector, prevSessions int) []*sparse.Vector {
	if prevSessions < 0 || prevSessions > len(l.sessions) || len(prev) > l.numImages {
		panic(fmt.Sprintf("feedbacklog: stale column view (%d images at %d sessions) cannot extend to %d images at %d sessions",
			len(prev), prevSessions, l.numImages, len(l.sessions)))
	}
	if prevSessions == len(l.sessions) && len(prev) == l.numImages {
		return prev
	}
	dim := len(l.sessions)
	out := make([]*sparse.Vector, l.numImages)
	var slab []sparse.Vector
	for i := range out {
		if len(slab) == 0 {
			slab = make([]sparse.Vector, min(headerSlab, l.numImages-i))
		}
		out[i], slab = &slab[0], slab[1:]
		out[i].Dim = dim
		if i < len(prev) {
			out[i].Entries = prev[i].Entries
		}
	}
	for sid := prevSessions; sid < len(l.sessions); sid++ {
		s := l.sessions[sid]
		imgs := make([]int, 0, len(s.Judgments))
		for img := range s.Judgments {
			imgs = append(imgs, img)
		}
		sort.Ints(imgs)
		for _, img := range imgs {
			// Sessions are appended in id order and every existing entry of
			// the column has a smaller session index, so the new component
			// goes at the end; the full slice expression forces the append
			// to copy instead of scribbling on storage shared with prev.
			e := out[img].Entries
			out[img].Entries = append(e[:len(e):len(e)], sparse.Entry{Index: sid, Value: float64(s.Judgments[img])})
		}
	}
	return out
}

// Stats summarizes a log.
type Stats struct {
	Sessions         int
	JudgedImages     int     // distinct images with at least one judgment
	TotalJudgments   int     // sum over sessions of judged images
	CoverageFraction float64 // judged images / collection size
}

// Stats computes summary statistics of the log.
func (l *Log) Stats() Stats {
	st := Stats{Sessions: len(l.sessions)}
	judged := make(map[int]bool)
	for _, s := range l.sessions {
		st.TotalJudgments += len(s.Judgments)
		//cbirlint:ignore determinism set membership is iteration-order independent
		for img := range s.Judgments {
			judged[img] = true
		}
	}
	st.JudgedImages = len(judged)
	if l.numImages > 0 {
		st.CoverageFraction = float64(st.JudgedImages) / float64(l.numImages)
	}
	return st
}
