package kernel

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lrfcsvm/internal/sparse"
)

// logColumns is the relevance columns of images judged by sessions, each
// session a map image → judgment: what feedbacklog.Log.RelevanceVectors
// returns for that log.
func logColumns(images int, sessions []map[int]float64) []*sparse.Vector {
	cols := make([]*sparse.Vector, images)
	for i := range cols {
		cols[i] = sparse.New(len(sessions))
	}
	for s, judged := range sessions {
		for img, v := range judged {
			cols[img].Set(s, v)
		}
	}
	return cols
}

// sessionRows is the sessions as the rows LogIndex.Extend takes.
func sessionRows(sessions []map[int]float64) [][]sparse.Entry {
	rows := make([][]sparse.Entry, len(sessions))
	for s, judged := range sessions {
		for img, v := range judged {
			rows[s] = append(rows[s], sparse.Entry{Index: img, Value: v})
		}
		slices.SortFunc(rows[s], func(a, b sparse.Entry) int { return a.Index - b.Index })
	}
	return rows
}

// sameLog reports how ix differs from the log whose relevance columns are
// cols: its session count, its index by session (the counting sort of
// NewSparseSVIndex), and each image's column and coverage.
func sameLog(ix *LogIndex, cols []*sparse.Vector) error {
	if ix.Dim() != cols[0].Dim || !reflect.DeepEqual(ix.Sessions(), NewSparseSVIndex(SparsePoints(cols))) {
		return fmt.Errorf("%d sessions, the log %d, or another index by session", ix.Dim(), cols[0].Dim)
	}
	for i, col := range cols {
		got := ix.Column(i)
		if got.Dim != col.Dim || !slices.Equal(got.Entries, col.Entries) || ix.Covered(i) != (len(col.Entries) > 0) {
			return fmt.Errorf("image %d: column %+v (covered %v), want %+v", i, got, ix.Covered(i), col)
		}
	}
	return nil
}

// TestLogIndexExtendMovesFullRuns extends an index session by session so
// that full runs move — to their page's free tail, or with a compaction of
// the page into a new array — and runs with room grow in place, and a page
// past the index's pages is judged. After every extension the index must
// hold the log, and every earlier version must still read its own log: a
// move and an append in place write past what the older versions' columns
// and tails hold.
func TestLogIndexExtendMovesFullRuns(t *testing.T) {
	const images = 2*pageImages + 1
	first := make(map[int]float64)
	for i := 0; i < pageImages/2; i++ {
		first[i] = 1
	}
	sessions := []map[int]float64{
		first,
		first,                     // every run of 1 is full: they move
		{0: 1},                    // full again
		{0: -1},                   // room for one more: in place
		{0: 1, 2 * pageImages: 1}, // full, and a new page past the list
	}
	var versions []*LogIndex
	var ix *LogIndex
	seen := map[string]int{}
	for s, row := range sessionRows(sessions) {
		prev := ix
		ix = ix.Extend([][]sparse.Entry{row})
		versions = append(versions, ix)
		if err := sameLog(ix, logColumns(images, sessions[:s+1])); err != nil {
			t.Fatalf("after session %d: %v", s, err)
		}
		for img := range sessions[s] {
			if prev == nil || img/pageImages >= len(prev.pages) {
				continue
			}
			before, page := prev.pages[img/pageImages], ix.pages[img/pageImages]
			was, now := before.runs[img%pageImages], page.runs[img%pageImages]
			sameArray := &page.entries[0] == &before.entries[0]
			switch full := int(was.n) == runCap(int(was.n)); {
			case !full && (now.off != was.off || !sameArray):
				t.Errorf("session %d: image %d's run of %d had room and moved", s, img, was.n)
			case !full:
				seen["in place"]++
			case sameArray && now.off == was.off:
				t.Errorf("session %d: image %d's full run of %d did not move", s, img, was.n)
			case sameArray:
				seen["to the tail"]++
			default:
				seen["with a compaction"]++
			}
		}
		for v, old := range versions {
			if err := sameLog(old, logColumns(images, sessions[:v+1])); err != nil {
				t.Fatalf("after session %d, the version of session %d changed: %v", s, v, err)
			}
		}
	}
	for _, how := range []string{"in place", "to the tail", "with a compaction"} {
		if seen[how] == 0 {
			t.Errorf("no run grew %s: %v", how, seen)
		}
	}
	if len(versions[3].pages) != 1 || len(ix.pages) != 3 || ix.pages[1] != nil {
		t.Errorf("pages %d before the last session and %v after it, want 1 and 3 with no page 1", len(versions[3].pages), ix.pages)
	}
}

// TestLogIndexExtendCostsWhatItAdds pins what extending the index by one
// 20-image session costs at 500 and at 50,000 images: the same number of
// objects at either size, and at most 12 bytes per image at 50,000 — the
// page list, a pointer per 64 images, and the judgments added with the pages
// they fall in. The log over the first 500 images is the same at either
// size, 64 sessions of 20 judgments, and one more session judges the last
// image, so the page list covers the collection; the measured session judges
// 20 of the first 500 images.
func TestLogIndexExtendCostsWhatItAdds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the code under test, more for larger objects")
	}
	cost := func(images int) (allocs uint64, bytes float64) {
		var ix *LogIndex
		for s := 0; s < 64; s++ {
			judged := make(map[int]float64)
			for k := 0; k < 20; k++ {
				judged[(s*37+k*101)%500] = float64(1 - 2*(k%2))
			}
			ix = ix.Extend(sessionRows([]map[int]float64{judged}))
		}
		ix = ix.Extend(sessionRows([]map[int]float64{{images - 1: 1}}))
		judged := make(map[int]float64)
		for k := 0; k < 20; k++ {
			judged[25*k+24] = 1
		}
		rows := sessionRows([]map[int]float64{judged})
		// Every run extends the same version, so each costs the same.
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range runs {
			ix.Extend(rows)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, _ := cost(500)
	largeAllocs, largeBytes := cost(50000)
	t.Logf("one 20-image session: %d allocations at 500 images, %d and %.1f bytes per image at 50,000", smallAllocs, largeAllocs, largeBytes/50000)
	if smallAllocs != largeAllocs {
		t.Errorf("extending allocates %d objects at 500 images and %d at 50,000, want the same", smallAllocs, largeAllocs)
	}
	if perImage := largeBytes / 50000; perImage > 12 {
		t.Errorf("extending allocates %.1f bytes per image at 50,000 images, want at most 12", perImage)
	}
}

// TestNewLogIndexRefusesMalformedColumns: the conversion refuses what would
// otherwise panic a ranking, a nil column or a column of another dimension.
func TestNewLogIndexRefusesMalformedColumns(t *testing.T) {
	good := func() []*sparse.Vector { return logColumns(8, []map[int]float64{{1: 1, 7: -1}, {2: 1}}) }
	cases := map[string]func(cols []*sparse.Vector){
		"none":           func([]*sparse.Vector) {},
		"nil at 0":       func(cols []*sparse.Vector) { cols[0] = nil },
		"nil at 7":       func(cols []*sparse.Vector) { cols[7] = nil },
		"dimension at 7": func(cols []*sparse.Vector) { cols[7] = sparse.New(3) },
	}
	if _, err := NewLogIndex(good()); err != nil {
		t.Fatalf("a well-formed log refused: %v", err)
	}
	for name, spoil := range cases {
		cols := good()
		if name == "none" {
			cols = nil
		}
		spoil(cols)
		if _, err := NewLogIndex(cols); err == nil {
			t.Errorf("%s: converted without an error", name)
		}
	}
}
