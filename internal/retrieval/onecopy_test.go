package retrieval

import (
	"runtime"
	"testing"

	"lrfcsvm/internal/linalg"
)

// TestEngineKeepsOneCopyOfTheCollection holds the engine to one copy of the
// descriptors: once the caller has dropped its rows, what a 20,000-image
// engine keeps alive is the flat store — dim values and one squared norm per
// image — and a quarter of that at most for everything else. A per-image heap
// row beside the store (36 values, an allocation header's rounding and a
// 24-byte slice header: ~600 bytes an image against the store's 296) fails it.
func TestEngineKeepsOneCopyOfTheCollection(t *testing.T) {
	const n, dim = 20000, 36
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	rng := linalg.NewRNG(5)
	visual := make([]linalg.Vector, n)
	for i := range visual {
		visual[i] = make(linalg.Vector, dim)
		for j := range visual[i] {
			visual[i][j] = rng.Normal(0, 1)
		}
	}
	e, err := NewEngine(visual, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	visual = nil
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
}
