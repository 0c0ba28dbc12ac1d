package kernel

import (
	"fmt"
	"math/bits"

	"lrfcsvm/internal/sparse"
)

// LogIndex is a collection's feedback log indexed both ways the log modality
// reads it. By session it is the SparseSVIndex the scans walk a linear
// model's weight vector through (LinearAccumulateWeights). By image it is
// each image's relevance column — its judgments in ascending session order —
// which the training points and the coverage test read (Column, Covered).
//
// The columns hold no pointer per image. The images are cut into pages of
// pageImages; a page holds its images' (offset, length) pairs and one entry
// array in which each column is a run, laid out with room for runCap
// entries. Extending an index copies its page list, a pointer a page, and
// each page the new judgments fall in, once. The judgments go into their
// images' runs; a run they outgrow moves to the page's free tail with the
// room they need, and a page whose tail is too short gets a new array with
// every run laid out afresh and a quarter more room, so what the moves left
// behind goes back to the GC once no version reads the old array. Extend
// therefore costs the judgments it adds and the pages they fall in,
// amortized, plus the page list, and writes only past what the receiver's
// columns and tails hold. Images past the page list, or in a page no session
// judged, have no judgment: a collection that grows costs the index nothing
// until a session judges the new images. As with SparseSVIndex.Extend, only
// the most recently extended index may be extended again, by calls the
// caller serializes. An index is never written once it is built or extended,
// so concurrent readers share it.
type LogIndex struct {
	dim      int
	sessions *SparseSVIndex
	pages    []*logPage // image i is run i%pageImages of page i/pageImages; a nil page holds none
}

// pageImages is how many consecutive images share a page. An extension
// copies each page it writes, 512 bytes of pairs, and a pointer per page.
const pageImages = 64

// logPage is the columns of pageImages consecutive images: the column of
// the page's image r is entries[runs[r].off:][:runs[r].n], and entries[used:]
// is free.
type logPage struct {
	runs    [pageImages]logRun
	used    int32
	entries []sparse.Entry
}

// logRun is where one image's column lies in its page's entries.
type logRun struct{ off, n int32 }

// runCap is the room a run of n entries is laid out with: the power of two
// that holds it, none for none.
func runCap(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// NewLogIndex indexes the log given as one relevance column per image, as
// feedbacklog.Log.RelevanceVectors returns them: each column's entries in
// strictly ascending session order, inside its dimension, as sparse.Vector
// keeps them. It refuses an empty slice, a nil column and a column of
// another dimension than the first. The pages share one array, each its own
// part, laid out as a compaction lays it out but with no free tail.
func NewLogIndex(columns []*sparse.Vector) (*LogIndex, error) {
	if len(columns) == 0 || columns[0] == nil {
		return nil, fmt.Errorf("kernel: no log column for image 0")
	}
	dim, size := columns[0].Dim, 0
	for i, v := range columns {
		if v == nil {
			return nil, fmt.Errorf("kernel: the log column of image %d is nil", i)
		}
		if v.Dim != dim {
			return nil, fmt.Errorf("kernel: the log column of image %d has %d sessions, image 0's has %d", i, v.Dim, dim)
		}
		size += runCap(len(v.Entries))
	}
	pages := make([]logPage, (len(columns)+pageImages-1)/pageImages)
	entries := make([]sparse.Entry, size)
	ix := &LogIndex{dim: dim, pages: make([]*logPage, len(pages))}
	start, at := 0, 0 // the first entry of the page, the next
	for i, v := range columns {
		page := &pages[i/pageImages]
		if i%pageImages == 0 {
			start, ix.pages[i/pageImages] = at, page
		}
		page.runs[i%pageImages] = logRun{off: int32(at - start), n: int32(len(v.Entries))}
		copy(entries[at:], v.Entries)
		at += runCap(len(v.Entries))
		page.entries, page.used = entries[start:at:at], int32(at-start)
	}
	ix.sessions = NewSparseSVIndex(SparsePoints(columns))
	return ix, nil
}

// Extend returns the index of the receiver's log with one session appended
// per row: rows[k] lists the images session Dim()+k judged as entries
// {Index: image, Value: judgment}, in strictly ascending image order. A nil
// receiver is the index of a log of no session.
func (ix *LogIndex) Extend(rows [][]sparse.Entry) *LogIndex {
	out := &LogIndex{}
	if ix != nil {
		*out = *ix
	}
	old := out.pages
	images := len(old) * pageImages
	for k, row := range rows {
		for i, e := range row {
			if e.Index < 0 || i > 0 && e.Index <= row[i-1].Index {
				panic(fmt.Sprintf("kernel: Extend row %d has image %d at position %d, not in strictly ascending order", k, e.Index, i))
			}
		}
		if len(row) > 0 {
			images = max(images, row[len(row)-1].Index+1)
		}
	}
	pages := make([]*logPage, (images+pageImages-1)/pageImages)
	copy(pages, old)
	// Copy each page a judgment falls in and count the judgment into its
	// run's length, ready each copy for its new lengths, then write.
	var touched []int
	for _, row := range rows {
		for _, e := range row {
			p := e.Index / pageImages
			if pages[p] == nil || p < len(old) && pages[p] == old[p] {
				fresh := &logPage{}
				if pages[p] != nil {
					*fresh = *pages[p]
				}
				pages[p] = fresh
				touched = append(touched, p)
			}
			pages[p].runs[e.Index%pageImages].n++
		}
	}
	for _, p := range touched {
		var was *logPage
		if p < len(old) {
			was = old[p]
		}
		pages[p].ready(was)
	}
	for k, row := range rows {
		for _, e := range row {
			page := pages[e.Index/pageImages]
			run := &page.runs[e.Index%pageImages]
			page.entries[run.off+run.n] = sparse.Entry{Index: out.dim + k, Value: e.Value}
			run.n++
		}
	}
	out.sessions = out.sessions.Extend(rows)
	out.dim += len(rows)
	out.pages = pages
	return out
}

// ready prepares a page copied from was (nil for a new page), whose runs
// hold their lengths after the new judgments, for writing them. A run that
// outgrows its room moves to the free tail with the room its new length
// needs; when the tail is too short for every run that moves, the page is
// compacted instead. Each length is then set back to was's, where the
// writes start.
func (page *logPage) ready(was *logPage) {
	var before [pageImages]int32
	if was != nil {
		for r, run := range was.runs {
			before[r] = run.n
		}
	}
	more := 0
	for r, run := range page.runs {
		if int(run.n) > runCap(int(before[r])) {
			more += runCap(int(run.n))
		}
	}
	if int(page.used)+more > len(page.entries) {
		page.compact(&before)
	} else if more > 0 {
		for r := range page.runs {
			if run := &page.runs[r]; int(run.n) > runCap(int(before[r])) {
				copy(page.entries[page.used:], page.entries[run.off:run.off+before[r]])
				run.off = page.used
				page.used += int32(runCap(int(run.n)))
			}
		}
	}
	for r := range page.runs {
		page.runs[r].n = before[r]
	}
}

// compact lays every run out afresh in a new array, each with the room its
// length needs, and leaves a quarter of that free; before holds how many
// entries each run has to bring.
func (page *logPage) compact(before *[pageImages]int32) {
	size := 0
	for _, run := range page.runs {
		size += runCap(int(run.n))
	}
	entries := make([]sparse.Entry, size+size/4)
	used := 0
	for r := range page.runs {
		run := &page.runs[r]
		copy(entries[used:], page.entries[run.off:run.off+before[r]])
		run.off = int32(used)
		used += runCap(int(run.n))
	}
	page.entries, page.used = entries, int32(used)
}

// Dim returns the number of sessions of the log; a nil index has none.
func (ix *LogIndex) Dim() int {
	if ix == nil {
		return 0
	}
	return ix.dim
}

// Sessions returns the log inverted by session — the cells of session s are
// the images it judged, ascending — or nil for a log of no session, as
// NewSparseSVIndex returns for points of dimension 0.
func (ix *LogIndex) Sessions() *SparseSVIndex {
	if ix.dim == 0 {
		return nil
	}
	return ix.sessions
}

// run returns where image i's column lies, and its page; nil for an image in
// no page.
func (ix *LogIndex) run(i int) (logRun, *logPage) {
	if p := i / pageImages; p < len(ix.pages) && ix.pages[p] != nil {
		return ix.pages[p].runs[i%pageImages], ix.pages[p]
	}
	return logRun{}, nil
}

// Covered reports whether image i received a judgment.
func (ix *LogIndex) Covered(i int) bool {
	run, _ := ix.run(i)
	return run.n > 0
}

// Column returns the relevance column of image i: Dim() components, its
// judgments as entries. The entries are a view into the index, with no room
// to append into; the caller must not write them.
func (ix *LogIndex) Column(i int) sparse.Vector {
	v := sparse.Vector{Dim: ix.dim}
	if run, page := ix.run(i); run.n > 0 {
		v.Entries = page.entries[run.off : run.off+run.n : run.off+run.n]
	}
	return v
}
