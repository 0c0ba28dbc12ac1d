package retrieval_test

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/storage"
)

// TestEngineKeepsOneCopyOfTheCollection holds the engine to one copy of the
// descriptors: once the caller has dropped its rows, what a 20,000-image
// engine keeps alive is the flat store — dim values and one squared norm per
// image — and a quarter of that at most for everything else. A per-image heap
// row beside the store (36 values, an allocation header's rounding and a
// 24-byte slice header: ~600 bytes an image against the store's 296) fails it.
// It holds for both ways an engine is built: NewEngine over a caller's rows,
// and cbirserver's start — the feature store decoded into a store, the
// journal replayed over it, NewEngineOver.
func TestEngineKeepsOneCopyOfTheCollection(t *testing.T) {
	const n, dim = 20000, 36
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rows := func() []linalg.Vector {
		rng := linalg.NewRNG(5)
		visual := make([]linalg.Vector, n)
		for i := range visual {
			visual[i] = make(linalg.Vector, dim)
			for j := range visual[i] {
				visual[i][j] = rng.Normal(0, 1)
			}
		}
		return visual
	}
	features := filepath.Join(t.TempDir(), "features.bin")
	if err := storage.SaveFeatures(features, rows(), make([]int, n)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *retrieval.Engine
	}{
		{"rows", func(t *testing.T) *retrieval.Engine {
			e, err := retrieval.NewEngine(rows(), nil, retrieval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"server load path", func(t *testing.T) *retrieval.Engine {
			set, err := storage.LoadFeatureSet(features)
			if err != nil {
				t.Fatal(err)
			}
			log := feedbacklog.NewLog(set.Len())
			journal, set, _, err := storage.OpenJournalOver(filepath.Join(t.TempDir(), "engine.wal"), set, log, storage.JournalOptions{Fsync: storage.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { journal.Close() })
			e, err := retrieval.NewEngineOver(set, log, retrieval.Options{Journal: journal})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := heap()
			e := c.build(t)
			after := heap()
			store := uint64(n * (dim + 1) * 8)
			if after <= before {
				t.Fatalf("live heap read %d bytes before the collection and %d with its engine", before, after)
			}
			grew := after - before
			t.Logf("an engine of %d×%d descriptors keeps %d bytes alive, %d per image; the store is %d", n, dim, grew, grew/n, store)
			if grew > store+store/4 {
				t.Errorf("the engine keeps more than 1.25 × the store: a second copy of the collection")
			}
			runtime.KeepAlive(e)
		})
	}
}

// TestSnapshotWithAllocatesNothingPerImage: a snapshot pass hands the
// snapshot writer the engine's store, not a view per image, so capturing the
// state of 50,000 images allocates no more bytes than capturing 5,000 — the
// log's clone aside, which an empty log keeps constant. A row view per image
// is 24 bytes an image: 1.08 MB more at 50,000.
func TestSnapshotWithAllocatesNothingPerImage(t *testing.T) {
	perCall := func(n int) uint64 {
		rng := linalg.NewRNG(9)
		visual := make([]linalg.Vector, n)
		for i := range visual {
			visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
		}
		e, err := retrieval.NewEngine(visual, nil, retrieval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// The fewest bytes of three rounds: MemStats counts every
		// goroutine's allocations.
		least := uint64(math.MaxUint64)
		for range 3 {
			const calls = 50
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range calls {
				set, log := e.SnapshotWith(nil)
				runtime.KeepAlive(set)
				runtime.KeepAlive(log)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/calls)
		}
		return least
	}
	small, large := perCall(5000), perCall(50000)
	t.Logf("SnapshotWith allocates %d bytes at 5,000 images and %d at 50,000", small, large)
	if large > small+64 {
		t.Errorf("SnapshotWith allocates %d bytes at 50,000 images, %d at 5,000: something per image", large, small)
	}
}
