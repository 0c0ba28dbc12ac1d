package retrieval

import (
	"context"
	"fmt"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// rankingsEqual asserts two full result lists are identical in indices and
// bit-identical in scores.
func rankingsEqual(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Image != want[i].Image || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestShardBoundaryIngestion grows an engine through ingestion batches that
// exactly fill, straddle and overflow the fixed-size collection shards, and
// verifies after every batch that the engine is bit-identical — full initial
// ranking and a feedback refinement — to an engine rebuilt from scratch over
// the same collection. Shard layout must depend only on the shard size,
// never on how ingestion was batched.
func TestShardBoundaryIngestion(t *testing.T) {
	const shardSize = kernel.DefaultShardSize
	visual := randomDescriptors(linalg.NewRNG(21), 3*shardSize+100)
	opts := Options{}

	prev := shardSize - 5
	e, err := NewEngine(visual[:prev], nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name      string
		to        int
		wantShard int
	}{
		{"fill tail shard exactly", shardSize, 1},
		{"straddle into a new shard", shardSize + 5, 2},
		{"overflow multiple shards", 3*shardSize + 5, 4},
		{"partial tail", 3*shardSize + 100, 4},
	}
	for _, step := range steps {
		if _, err := e.AddImages(context.Background(), visual[prev:step.to]); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		prev = step.to
		if got := e.Collection().Shards; got != step.wantShard {
			t.Fatalf("%s: %d shards, want %d", step.name, got, step.wantShard)
		}
		rebuilt, err := NewEngine(visual[:step.to], nil, opts)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", step.name, err)
		}
		for _, q := range []int{0, step.to / 2, step.to - 1} {
			got, err := e.InitialQuery(context.Background(), q, e.NumImages())
			if err != nil {
				t.Fatalf("%s: grown query %d: %v", step.name, q, err)
			}
			want, err := rebuilt.InitialQuery(context.Background(), q, rebuilt.NumImages())
			if err != nil {
				t.Fatalf("%s: rebuilt query %d: %v", step.name, q, err)
			}
			rankingsEqual(t, fmt.Sprintf("%s query %d", step.name, q), got, want)
		}
	}

	// A feedback round on the fully grown engine matches the rebuilt one.
	rebuilt, err := NewEngine(visual, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	refine := func(e *Engine) []Result {
		s, err := e.StartSession(3)
		if err != nil {
			t.Fatal(err)
		}
		for img := 0; img < 10; img++ {
			if err := s.Judge(img, img < 5); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Refine(context.Background(), SchemeRFSVM, e.NumImages())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rankingsEqual(t, "rf-svm refinement", refine(e), refine(rebuilt))
}
