package retrieval

import (
	"context"
	"errors"
	"testing"
	"time"

	"lrfcsvm/internal/linalg"
)

// annTestOptions enables pruning at the scale of the test collection.
func annTestOptions(nprobe int) Options {
	return Options{ANN: ANNOptions{
		Enable:        true,
		Clusters:      5,
		NProbe:        nprobe,
		MinCollection: 10,
	}}
}

func TestANNDisabledByDefault(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats := e.ANNStats()
	if stats.Enabled || stats.IndexedImages != 0 || stats.Rebuilds != 0 {
		t.Fatalf("default engine reports ANN state: %+v", stats)
	}
	if e.ann.Load() != nil {
		t.Fatal("default engine built an index")
	}
}

// Probing every cell makes the candidate set the whole collection, so the
// pruned path must reproduce the exhaustive ranking bit-for-bit — the
// engine-level exactness oracle.
func TestANNInitialQueryParityNProbeAll(t *testing.T) {
	visual, _, log := testCollection(t)
	exact, err := NewEngine(visual, log.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	pruned, err := NewEngine(visual, log, annTestOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer pruned.Close()

	stats := pruned.ANNStats()
	if !stats.Enabled || stats.IndexedImages != len(visual) || stats.Clusters != 5 || stats.Rebuilds != 1 {
		t.Fatalf("index stats after construction: %+v", stats)
	}

	for query := 0; query < len(visual); query += 7 {
		want, err := exact.InitialQuery(context.Background(), query, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pruned.InitialQuery(context.Background(), query, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", query, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d = %+v, want %+v", query, i, got[i], want[i])
			}
		}
	}
}

// An image ingested after the index build lives in the unindexed tail and
// must be found by a pruned query immediately — before any rebuild runs.
func TestANNUnindexedTailNeverMissed(t *testing.T) {
	visual, _, log := testCollection(t)
	// One image is under the rebuild threshold (a quarter of the indexed 60),
	// so the index stays pinned to the original collection.
	e, err := NewEngine(visual, log, annTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Ingest an exact duplicate of the query image: under Euclidean scoring
	// it must rank directly after the query itself (distance 0, higher
	// index loses the tie), which a pruned scan can only get right by
	// scanning the tail exactly.
	query := 0
	dup := append(linalg.Vector(nil), visual[query]...)
	first, err := e.AddImages(context.Background(), []linalg.Vector{dup})
	if err != nil {
		t.Fatal(err)
	}

	stats := e.ANNStats()
	if stats.IndexedImages != len(visual) || stats.TailImages != 1 || stats.Rebuilds != 1 {
		t.Fatalf("tail not preserved: %+v", stats)
	}

	results, err := e.InitialQuery(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 2 || results[0].Image != query || results[1].Image != first {
		t.Fatalf("pruned query missed the tail duplicate: %+v", results)
	}
	if results[1].Score != results[0].Score {
		t.Fatalf("duplicate image scored %v, query scored %v — tail not scored exactly", results[1].Score, results[0].Score)
	}
}

// Growing the tail past the rebuild threshold must fold it into a new index
// generation in the background, published forward-only like a refine round.
func TestANNBackgroundRebuildFoldsTail(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, annTestOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := linalg.NewRNG(77)
	if _, err := e.AddImages(context.Background(), randomDescriptors(rng, 30)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if stats := e.ANNStats(); stats.IndexedImages == 90 && stats.TailImages == 0 {
			if stats.Rebuilds < 2 {
				t.Fatalf("tail folded without a rebuild: %+v", stats)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never published: %+v", e.ANNStats())
		}
		time.Sleep(time.Millisecond)
	}

	// The rebuilt index still answers exactly when probing everything.
	exact, err := NewEngine(append([]linalg.Vector(nil), e.cur.Load().visual...), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	want, err := exact.InitialQuery(context.Background(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.InitialQuery(context.Background(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-rebuild result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A closed engine must not start new rebuilds, and a rebuild in flight at
// Close must stop without publishing garbage.
func TestANNRebuildStopsOnClose(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, annTestOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	rebuilds := e.ANNStats().Rebuilds
	// A closed engine rejects the mutation at admission (so there is nothing
	// to fold into the index) and must not rebuild.
	if _, err := e.AddImages(context.Background(), randomDescriptors(linalg.NewRNG(5), 30)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("AddImages after Close = %v, want ErrEngineClosed", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := e.ANNStats().Rebuilds; got != rebuilds {
		t.Fatalf("closed engine rebuilt its index (%d -> %d)", rebuilds, got)
	}
}
