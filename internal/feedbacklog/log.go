// Package feedbacklog implements the user-feedback log substrate of the
// paper: log sessions, the relevance matrix R whose columns are the per-image
// log relevance vectors r_i, and a simulator that collects log sessions the
// way the paper describes collecting them from real users (Section 6.3),
// including judgment noise.
package feedbacklog

import (
	"cmp"
	"fmt"
	"slices"

	"lrfcsvm/internal/kernel"
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
// which the user judged the images returned for a query, as AddSession takes
// it and Sessions gives it back: the log keeps no map (see Log).
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

// AppendSorted appends the session's judgments to dst as entries {Index:
// image, Value: judgment}, in ascending image order — the form the log keeps
// them in — and returns the extended slice.
func (s Session) AppendSorted(dst []sparse.Entry) []sparse.Entry {
	n := len(dst)
	//cbirlint:ignore determinism the entries are sorted below
	for img, j := range s.Judgments {
		dst = append(dst, sparse.Entry{Index: img, Value: float64(j)})
	}
	slices.SortFunc(dst[n:], func(a, b sparse.Entry) int { return cmp.Compare(a.Index, b.Index) })
	return dst
}

// Log is an ordered collection of feedback sessions over a fixed image
// collection. It is the log database of the paper: a relevance matrix R with
// one row per session and one column per image, stored once: each session's
// query and category, and one index whose row s is session s's judgments in
// ascending image order (kernel.SparseSVIndex), which the log schemes' scans
// walk and ExtendIndex hands to the index by image without a copy.
type Log struct {
	numImages int
	heads     []head
	rows      *kernel.SparseSVIndex
}

// head is a session's query image and category, as wide as the files keep them.
type head struct{ query, category int32 }

// NewLog creates an empty log over a collection of numImages images.
func NewLog(numImages int) *Log {
	if numImages <= 0 {
		panic(fmt.Sprintf("feedbacklog: non-positive image count %d", numImages))
	}
	return &Log{numImages: numImages, rows: &kernel.SparseSVIndex{}}
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

// Clone returns a copy of the log in O(1): it shares the log's storage with
// no room to append into, so the original and the clone can both keep
// growing, and each holds exactly its own sessions — the original grows
// while a clone is serialized or inspected.
func (l *Log) Clone() *Log {
	return &Log{numImages: l.numImages, heads: slices.Clip(l.heads), rows: l.rows.Clip()}
}

// Reserve makes room for sessions more sessions holding judgments more
// judgments in all, so the AddRow calls of a loader that knows them (or a
// bound on them) copy nothing on the way.
func (l *Log) Reserve(sessions, judgments int) {
	l.heads = slices.Grow(l.heads, sessions)
	l.rows.Grow(sessions, judgments)
}

// NumSessions returns the number of recorded sessions, i.e. the
// dimensionality M of the per-image log relevance vectors.
func (l *Log) NumSessions() int { return len(l.heads) }

// Row returns session s's query image, its target category and its
// judgments: the images it judged, ascending, each entry's value its
// judgment, a view into the log that the caller must not write.
func (l *Log) Row(s int) (query, category int, judged []sparse.Entry) {
	h := l.heads[s]
	return int(h.query), int(h.category), l.rows.Row(s)
}

// Sessions returns the recorded sessions in insertion order, each with a
// judgment map of its own, built on every call: a view for the benchmark
// harness and tests, which the log does not keep.
func (l *Log) Sessions() []Session {
	out := make([]Session, len(l.heads))
	for s := range out {
		query, category, judged := l.Row(s)
		judgments := make(map[int]Judgment, len(judged))
		for _, e := range judged {
			judgments[e.Index] = Judgment(e.Value)
		}
		out[s] = Session{ID: s, QueryImage: query, TargetCategory: category, Judgments: judgments}
	}
	return out
}

// AddSession appends a session to the log, assigning its ID: AddRow of its
// judgments sorted by image (up to 64 on the stack; a feedback page is 20),
// which reports the first bad judgment the same way on every run. The map is
// not kept.
func (l *Log) AddSession(s Session) (int, error) {
	var buf [64]sparse.Entry
	return l.AddRow(s.QueryImage, s.TargetCategory, s.AppendSorted(buf[:0]))
}

// AddRow appends a session given as its query image, category and judgments
// — entries {Index: image, Value: ±1}, strictly ascending by image; the row
// is copied — and assigns its ID. It refuses an empty row, another value and
// a query or judged image outside the collection: a session replayed from a
// corrupt store must not smuggle one into the log, where it would only
// explode much later in the query path.
func (l *Log) AddRow(query, category int, row []sparse.Entry) (int, error) {
	if len(row) == 0 {
		return 0, fmt.Errorf("feedbacklog: session with no judgments")
	}
	if query < 0 || query >= l.numImages {
		return 0, fmt.Errorf("feedbacklog: query image %d outside collection of %d images", query, l.numImages)
	}
	for _, e := range row {
		if e.Index < 0 || e.Index >= l.numImages {
			return 0, fmt.Errorf("feedbacklog: judgment for image %d outside collection of %d images", e.Index, l.numImages)
		}
		if e.Value != float64(Relevant) && e.Value != float64(Irrelevant) {
			return 0, fmt.Errorf("feedbacklog: invalid judgment %v for image %d", e.Value, e.Index)
		}
	}
	l.rows.AppendRow(row)
	l.heads = append(l.heads, head{query: int32(query), category: int32(category)})
	return len(l.heads) - 1, nil
}

// RelevanceVectors returns the log relevance vectors of every image, indexed
// by image index. This is the column view of the relevance matrix R.
func (l *Log) RelevanceVectors() []*sparse.Vector {
	out := make([]*sparse.Vector, l.numImages)
	for i := range out {
		out[i] = sparse.New(len(l.heads))
	}
	for sid := range l.heads {
		for _, e := range l.rows.Row(sid) {
			out[e.Index].Set(sid, e.Value)
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
// identity keep hitting. prev is never mutated. Only bench/ keeps a column
// view this way — the retrieval engine keeps the log as one index
// (ExtendIndex) — and the method ends once bench/ stops calling it.
func (l *Log) ExtendRelevanceVectors(prev []*sparse.Vector, prevSessions int) []*sparse.Vector {
	dim := len(l.heads)
	if prevSessions < 0 || prevSessions > dim || len(prev) > l.numImages {
		panic(fmt.Sprintf("feedbacklog: stale column view (%d images at %d sessions) cannot extend to %d images at %d sessions",
			len(prev), prevSessions, l.numImages, dim))
	}
	if prevSessions == dim && len(prev) == l.numImages {
		return prev
	}
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
	for sid := prevSessions; sid < dim; sid++ {
		for _, cell := range l.rows.Row(sid) {
			// Sessions are appended in id order and every existing entry of
			// the column has a smaller session index, so the new component
			// goes at the end; the full slice expression forces the append
			// to copy instead of scribbling on storage shared with prev.
			e := out[cell.Index].Entries
			out[cell.Index].Entries = append(e[:len(e):len(e)], sparse.Entry{Index: sid, Value: cell.Value})
		}
	}
	return out
}

// ExtendIndex returns the log indexed by session and by image
// (kernel.LogIndex), logically the index kernel.NewLogIndex builds of
// RelevanceVectors(). Its session side is the log's own index, copied by
// value; prev is an index an earlier call returned for this log, or nil, and
// only the sessions it does not hold are added to the pages by image, at
// O(judgments added), sharing its storage as kernel.LogIndex.Extend does —
// so only the latest index may be extended, by calls serialized with the
// log's mutations: in the retrieval engine a commit is the only extender,
// under its mutation lock, before it publishes the index (the first index
// is built once, from a clone taken at the engine's start). When no session
// was added prev itself is returned; images added by GrowImages change
// nothing until a session judges them.
func (l *Log) ExtendIndex(prev *kernel.LogIndex) *kernel.LogIndex {
	if prev != nil && prev.Dim() == len(l.heads) {
		return prev
	}
	return prev.Extend(l.rows)
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
	st := Stats{Sessions: len(l.heads)}
	judged := make([]bool, l.numImages)
	for s := range l.heads {
		for _, e := range l.rows.Row(s) {
			st.TotalJudgments++
			if !judged[e.Index] {
				judged[e.Index] = true
				st.JudgedImages++
			}
		}
	}
	st.CoverageFraction = float64(st.JudgedImages) / float64(l.numImages)
	return st
}
