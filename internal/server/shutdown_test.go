package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/storage"
)

// Engine.Close racing in-flight requests through the full HTTP stack (run
// with -race): every response is 200 (finished before the close landed) or
// 503 (engine shut down mid-request) — never 499, the client never
// disconnected.
func TestEngineCloseRacesInFlightRequests(t *testing.T) {
	srv, _, engine := testServerWithConfig(t, Config{})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				resp, err := http.Get(srv.URL + "/api/query?image=0&k=5")
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					return // shutdown observed; later requests stay 503
				default:
					t.Errorf("worker %d: status %d, want 200 or 503", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(time.Millisecond)
	engine.Close()
	wg.Wait()
}

// TestCloseLeavesNoGoroutine starts everything cbirserver starts that owns a
// goroutine — the journal's interval flusher, the snapshotter's poll loop,
// the server's session sweeper, the listener and its connections — drives a
// feedback round through them and closes them in cbirserver's order: the
// goroutine count must be back at its baseline within two seconds.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	visual, labels, log := testCollection(t)
	journal, visual, _, err := storage.OpenJournal(filepath.Join(dir, "engine.wal"), visual, log, storage.JournalOptions{Fsync: storage.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := retrieval.NewEngine(visual, log, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	snapshotter, err := storage.NewSnapshotter(journal, engine.SnapshotWith, storage.SnapshotterConfig{SnapshotPath: filepath.Join(dir, "engine.snap"), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine)
	srv := httptest.NewServer(s.Handler())
	id := startJudgedSession(t, srv, labels, 0)
	for _, route := range []string{"refine", "commit"} {
		if resp := postJSON(t, srv.URL+"/api/sessions/"+route, CommitRequest{SessionID: id}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", route, resp.StatusCode)
		}
	}

	srv.Close()
	s.Close()
	engine.Close()
	snapshotter.Close()
	if err := snapshotter.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d two seconds after everything was closed:\n%s", baseline, runtime.NumGoroutine(), stacks[:runtime.Stack(stacks, true)])
		}
	}
}
