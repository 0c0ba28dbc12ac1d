package retrieval

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"lrfcsvm/internal/kernel"
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

// TestSnapshotViewsSurviveIngestion: a snapshot's descriptor rows are views
// into the engine's copy-on-write shards, so they must read the same bits
// while and after ingestions append into the spare capacity behind them, move
// the tail shard to a larger array and spill into a new shard. A reader walks
// the snapshot during the ingestions, which is what the race detector checks.
func TestSnapshotViewsSurviveIngestion(t *testing.T) {
	const start = kernel.DefaultShardSize - 8
	rng := linalg.NewRNG(9)
	e, err := NewEngine(randomDescriptors(rng, start), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(count int) {
		t.Helper()
		if _, err := e.AddImages(context.Background(), randomDescriptors(rng, count)); err != nil {
			t.Fatal(err)
		}
	}
	// pin takes a snapshot and returns the check that its rows still read
	// the bits they had when it was taken.
	pin := func(rows int) (snap []linalg.Vector, check func(when string)) {
		t.Helper()
		snap, _ = e.SnapshotWith(nil)
		if len(snap) != rows {
			t.Fatalf("snapshot holds %d rows, want the %d of its epoch", len(snap), rows)
		}
		want := make([]linalg.Vector, len(snap))
		for i, row := range snap {
			want[i] = append(linalg.Vector(nil), row...)
		}
		return snap, func(when string) {
			for i, row := range snap {
				for j := range row {
					if math.Float64bits(row[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("%s: row %d[%d] of the %d-row snapshot = %v, was %v when taken", when, i, j, rows, row[j], want[i][j])
						return
					}
				}
			}
		}
	}
	// The tail shard was built at its exact size, so the first ingestion
	// moves it to a larger array (behind the first snapshot's back) and the
	// next lands in that array's spare capacity, right behind the second
	// snapshot's last row.
	_, checkExact := pin(start)
	ingest(2)
	snap, checkSpare := pin(start + 2)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				checkExact("during ingestion")
				checkSpare("during ingestion")
			}
		}
	}()
	ingest(1)
	ingest(20) // fills the shard and opens the next
	ingest(kernel.DefaultShardSize + 1)
	close(done)
	wg.Wait()
	if got := e.Collection(); got.Shards != 3 || got.Images != start+24+kernel.DefaultShardSize {
		t.Fatalf("collection after the ingestions: %+v", got)
	}
	checkExact("after ingestion")
	checkSpare("after ingestion")
	// A view cannot be grown into the row behind it.
	if row := snap[0]; cap(row) != len(row) {
		t.Errorf("snapshot row has capacity %d beyond its %d values", cap(row), len(row))
	}
}
