package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaryExactness(t *testing.T) {
	// Upper bounds are inclusive (le semantics): an observation exactly on a
	// bound must land in that bound's bucket, and the next representable
	// float must overflow into the following bucket.
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.001)
	h.Observe(math.Nextafter(0.001, 2)) // just over the first bound
	h.Observe(0.01)
	h.Observe(1)
	h.Observe(math.Nextafter(1, 2)) // past the last finite bound: +Inf
	h.Observe(0)                    // zero lands in the first bucket

	s := h.Snapshot()
	want := []uint64{2, 2, 0, 1, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	wantSum := 0.001 + math.Nextafter(0.001, 2) + 0.01 + 1 + math.Nextafter(1, 2)
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Errorf("sum: got %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	// Race test: hammer Observe from many goroutines while snapshots are
	// taken concurrently. Run under -race this proves the lock-free write
	// path is data-race free; the final snapshot must account for every
	// observation exactly once.
	h := NewHistogram(nil)
	const writers = 8
	const perWriter = 5000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var cum uint64
			for _, c := range s.Counts {
				cum += c
			}
			// Mid-flight snapshots may be approximate, but per-bucket sums
			// can never exceed the total number of observations.
			if cum > writers*perWriter {
				t.Errorf("snapshot over-counts: %d > %d", cum, writers*perWriter)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Float64() * 2)
			}
		}(int64(w))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	s := h.Snapshot()
	var cum uint64
	for _, c := range s.Counts {
		cum += c
	}
	if cum != writers*perWriter {
		t.Fatalf("final bucket sum: got %d, want %d", cum, writers*perWriter)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bad := range [][]float64{
		{1, 1},
		{2, 1},
		{math.NaN()},
		{1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
	// nil selects the default layout.
	h := NewHistogram(nil)
	if got, want := len(h.Snapshot().Bounds), len(DefLatencyBuckets); got != want {
		t.Errorf("default bounds: got %d, want %d", got, want)
	}
}
