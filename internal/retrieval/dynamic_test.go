package retrieval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"lrfcsvm/internal/linalg"
)

// randomDescriptors draws descriptors compatible with testCollection's
// 3-dimensional clustered layout.
func randomDescriptors(rng *linalg.RNG, n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		c := rng.Intn(4)
		out[i] = linalg.Vector{
			float64(4*c) + rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
		}
	}
	return out
}

func TestAddImagesValidation(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddImages(context.Background(), nil); err == nil {
		t.Error("empty ingestion accepted")
	}
	if _, err := e.AddImages(context.Background(), []linalg.Vector{{1, 2}}); err == nil {
		t.Error("mismatched descriptor dimension accepted")
	}
	if e.NumImages() != len(visual) {
		t.Errorf("failed ingestions changed the collection to %d images", e.NumImages())
	}
}

// NewEngine refuses what AddImages refuses: a collection with one bad row — a
// features file, snapshot or journal written before ingestion was validated —
// must not start an engine that cannot answer.
func TestNewEngineRejectsBadDescriptors(t *testing.T) {
	withBad := func(bad linalg.Vector) []linalg.Vector { return []linalg.Vector{{0, 1}, {1, 0}, bad, {2, 2}} }
	for _, tc := range []struct {
		name string
		rows []linalg.Vector
		want string // in the error
	}{
		{"NaN", withBad(linalg.Vector{math.NaN(), 1}), "image 2"},
		{"+Inf", withBad(linalg.Vector{math.Inf(1), 1}), "image 2"},
		{"-Inf", withBad(linalg.Vector{1, math.Inf(-1)}), "image 2"},
		{"overflows when squared", withBad(linalg.Vector{1e200, 1}), "image 2"},
		{"ragged", withBad(linalg.Vector{1, 0, 3}), "image 2"},
		{"zero-dimensional", []linalg.Vector{{}, {}}, "dimension 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.rows, nil, Options{})
			if err == nil {
				e.Close()
				t.Fatal("collection accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestConcurrentIngestionAndQueries is the live-collection stress test: it
// interleaves image ingestion, initial queries, refinement rounds and log
// commits on one engine from many goroutines. Run under -race it checks the
// epoch/copy-on-write discipline of the whole stack (DenseSet growth, batch
// caches, incremental log columns, session state).
func TestConcurrentIngestionAndQueries(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(visual, log, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// A snapshot's store is the copy-on-write shards: one reader walks
	// snapshots while the ingesters append behind them and move the tail
	// shard to larger arrays, which is the race detector's to check.
	stop, walked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(walked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			set, _ := e.SnapshotWith(nil)
			for i := range set.Len() {
				row := set.Point(i)
				if sum := row[0] + row[1] + row[2]; math.IsNaN(sum) {
					report(fmt.Errorf("snapshot row %d reads %v", i, row))
				}
			}
		}
	}()

	// Ingesters keep growing the collection in small batches.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 6; i++ {
				if _, err := e.AddImages(context.Background(), randomDescriptors(rng, 1+rng.Intn(3))); err != nil {
					report(fmt.Errorf("ingest: %w", err))
					return
				}
			}
		}(100 + uint64(g))
	}

	// Queriers issue initial queries against whatever collection size they
	// observe.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 15; i++ {
				n := e.NumImages()
				results, err := e.InitialQuery(context.Background(), rng.Intn(n), 10)
				if err != nil {
					report(fmt.Errorf("query: %w", err))
					return
				}
				if len(results) != 10 {
					report(fmt.Errorf("query returned %d results", len(results)))
					return
				}
			}
		}(200 + uint64(g))
	}

	// Feedback workers run full judge/refine/commit rounds, alternating
	// schemes so both the visual-only and the coupled paths are exercised.
	schemes := []SchemeKind{SchemeRFSVM, SchemeLRFCSVM, SchemeLRF2SVMs}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(worker int, seed uint64) {
			defer wg.Done()
			rng := linalg.NewRNG(seed)
			for i := 0; i < 4; i++ {
				q := rng.Intn(e.NumImages())
				s, err := e.StartSession(q)
				if err != nil {
					report(fmt.Errorf("start: %w", err))
					return
				}
				initial, err := e.InitialQuery(context.Background(), q, 8)
				if err != nil {
					report(fmt.Errorf("initial: %w", err))
					return
				}
				for j, r := range initial {
					if err := s.Judge(r.Image, j%2 == 0); err != nil {
						report(fmt.Errorf("judge: %w", err))
						return
					}
				}
				if _, err := s.Refine(context.Background(), schemes[(worker+i)%len(schemes)], 8); err != nil {
					report(fmt.Errorf("refine: %w", err))
					return
				}
				if err := s.Commit(context.Background()); err != nil {
					report(fmt.Errorf("commit: %w", err))
					return
				}
			}
		}(g, 300+uint64(g))
	}

	wg.Wait()
	close(stop)
	<-walked
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Everything committed must have landed in the log, and the collection
	// must have grown by every ingested batch.
	if e.NumImages() <= len(visual) {
		t.Errorf("collection did not grow: %d images", e.NumImages())
	}
	if got, want := e.NumLogSessions(), 25+3*4; got != want {
		t.Errorf("log sessions = %d, want %d", got, want)
	}
}
