package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// countdownCtx reports itself cancelled after a fixed number of Err calls —
// a deterministic stand-in for a deadline that expires mid-scan, letting
// tests pin exactly how far a cancelled scan may get.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(checks int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(checks))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelTestVectors(n int) []linalg.Vector {
	rng := linalg.NewRNG(11)
	vs := make([]linalg.Vector, n)
	for i := range vs {
		vs[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
	}
	return vs
}

// countRanges runs one exhaustive full-scores pass of the driver over vs and
// returns how many ranges it scored, with the pass's error.
func countRanges(ctx context.Context, vs []linalg.Vector, shardSize, workers int) (int, error) {
	batch := NewShardedCollectionBatch(vs, shardSize)
	var ranges atomic.Int64
	_, err := scanScores(&QueryContext{Visual: vs, Batch: batch, Workers: workers, Ctx: ctx}, batch,
		func(*rankScratch, *kernel.DenseSet, int, []float64) { ranges.Add(1) })
	return int(ranges.Load()), err
}

// A cancelled scan must stop within one shard range: the driver checks the
// context before every unit, so on one worker allowing exactly c checks means
// exactly c ranges run — the cancellation latency is one range, never the
// rest of the collection.
func TestScanRangesCancelStopsWithinOneRange(t *testing.T) {
	for _, allowed := range []int{0, 1, 3, 9} {
		got, err := countRanges(newCountdownCtx(allowed), cancelTestVectors(100), 10, 1) // 10 shards
		if got != allowed {
			t.Errorf("countdown %d: %d ranges ran, want exactly %d (one per permitted check)", allowed, got, allowed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("countdown %d: cancelled scan returned %v, want context.Canceled", allowed, err)
		}
	}
}

// The workers check before every unit they claim: a cancellation budget far
// below the unit count must leave most of the collection unscanned, and the
// caller must see the context error.
func TestScanRangesCancelParallel(t *testing.T) {
	got, err := countRanges(newCountdownCtx(4), cancelTestVectors(200), 5, 4) // 40 shards
	// The 4 workers share the 4 permitted checks; the scan cannot have
	// covered the whole collection.
	if got >= 40 {
		t.Errorf("cancelled parallel scan still ran all %d ranges", got)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
}

// A cancelled streaming top-K returns the context error and no ranking; an
// uncancelled context changes nothing — the ranking is bit-identical to a
// context-free run.
func TestRankTopCancellationAndParity(t *testing.T) {
	vs := cancelTestVectors(120)
	batch := NewShardedCollectionBatch(vs, 10) // 12 shards, so a small check budget cancels mid-scan
	base := &QueryContext{Visual: vs, Query: 0, Workers: 1, Batch: batch,
		Labeled: []LabeledExample{{Index: 1, Label: 1}, {Index: 2, Label: -1}}}

	want, err := Euclidean{}.RankTop(base, 10)
	if err != nil {
		t.Fatal(err)
	}

	cancelled := *base
	cancelled.Ctx = newCountdownCtx(2)
	if _, err := (Euclidean{}).RankTop(&cancelled, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RankTop error = %v, want context.Canceled", err)
	}

	// The cancelled run above must not have poisoned the shared batch with
	// partial cached state: a clean run over the same batch still matches.
	again := *base
	again.Ctx = context.Background()
	got, err := Euclidean{}.RankTop(&again, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v after a cancelled scan, want %+v", i, got[i], want[i])
		}
	}
}

// A coupled-scheme query cancelled before training returns the context
// error instead of a ranking (the solver polls the context between SMO
// iterations; see the svm package's own cancellation test for the solver-
// level guarantee).
func TestCoupledRankCancelled(t *testing.T) {
	vs := cancelTestVectors(60)
	ctx := &QueryContext{Visual: vs, Query: 0, Workers: 1,
		Labeled: []LabeledExample{{Index: 1, Label: 1}, {Index: 2, Label: 1}, {Index: 3, Label: -1}, {Index: 4, Label: -1}}}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = done
	if _, err := (RFSVM{}).Rank(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RFSVM.Rank error = %v, want context.Canceled", err)
	}
}
