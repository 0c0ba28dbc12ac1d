package retrieval_test

import (
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
			visual := set.Rows()
			journal, visual, _, err := storage.OpenJournal(filepath.Join(t.TempDir(), "engine.wal"), visual, log, storage.JournalOptions{Fsync: storage.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { journal.Close() })
			e, err := retrieval.NewEngineOver(set.Grow(visual[set.Len():]), log, retrieval.Options{Journal: journal})
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
