package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// TestStatusReportsANN verifies /api/status surfaces the candidate-generation
// index when pruning is enabled, and omits the section entirely when it is
// not.
func TestStatusReportsANN(t *testing.T) {
	// The default server runs exhaustively: no ANN section at all.
	srv, _ := testServer(t)
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.ANN != nil {
		t.Fatalf("exhaustive server reports an ANN section: %+v", *status.ANN)
	}

	// A pruning engine reports its live index.
	rng := linalg.NewRNG(11)
	visual := make([]linalg.Vector, 40)
	for i := range visual {
		visual[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
	}
	engine, err := retrieval.NewEngine(visual, nil, retrieval.Options{
		ANN: retrieval.ANNOptions{
			Enable:        true,
			Clusters:      4,
			NProbe:        2,
			MinCollection: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(engine, Config{})
	annSrv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		annSrv.Close()
		s.Close()
		engine.Close()
	})

	var annStatus StatusResponse
	if resp := getJSON(t, annSrv.URL+"/api/status", &annStatus); resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	if annStatus.ANN == nil {
		t.Fatal("pruning server omitted the ANN section")
	}
	want := engine.ANNStats()
	got := *annStatus.ANN
	if got.Clusters != want.Clusters || got.NProbe != want.NProbe ||
		got.IndexedImages != want.IndexedImages || got.TailImages != want.TailImages ||
		got.Rebuilds != want.Rebuilds {
		t.Fatalf("ANN status = %+v, engine reports %+v", got, want)
	}
	if got.Clusters != 4 || got.NProbe != 2 || got.IndexedImages != 40 || got.Rebuilds != 1 {
		t.Fatalf("ANN status = %+v, want the freshly built 4-cell index over 40 images", got)
	}
}
