package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// parkedJournal is a journal whose AppendSession parks until the test
// releases it: a commit held inside its journal append, as an fsync holds
// it, with the engine's mutation lock taken.
type parkedJournal struct{ parked, release chan struct{} }

func (j *parkedJournal) AppendSession(feedbacklog.Session) error {
	j.parked <- struct{}{}
	<-j.release
	return nil
}

func (j *parkedJournal) AppendImages([]linalg.Vector) error { return nil }

// TestReadsDoNotWaitForACommitOverHTTP parks a commit inside its journal
// append and holds a scrape of /metrics, /api/status and a refine of another
// session to answer meanwhile; once the commit is released, /api/status
// counts its session.
func TestReadsDoNotWaitForACommitOverHTTP(t *testing.T) {
	visual, labels, log := testCollection(t)
	sessions := log.NumSessions()
	journal := &parkedJournal{parked: make(chan struct{}), release: make(chan struct{})}
	engine, err := retrieval.NewEngine(visual, log, retrieval.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine)
	srv := httptest.NewServer(s.Handler())
	defer s.Close()
	defer srv.Close()
	committing, refining := startJudgedSession(t, srv, labels, 0), startJudgedSession(t, srv, labels, 13)

	post := func(client *http.Client, route string, body any) (*http.Response, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return client.Post(srv.URL+route, "application/json", bytes.NewReader(buf))
	}
	committed := make(chan error, 1)
	go func() {
		resp, err := post(http.DefaultClient, "/api/sessions/commit", CommitRequest{SessionID: committing})
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		committed <- err
	}()
	<-journal.parked
	released := false
	defer func() {
		if !released {
			close(journal.release) // let whatever waits on the commit finish
		}
	}()
	client := &http.Client{Timeout: 2 * time.Second} // a read gets that long
	for route, read := range map[string]func() (*http.Response, error){
		"GET /metrics":    func() (*http.Response, error) { return client.Get(srv.URL + "/metrics") },
		"GET /api/status": func() (*http.Response, error) { return client.Get(srv.URL + "/api/status") },
		"POST /api/sessions/refine": func() (*http.Response, error) {
			return post(client, "/api/sessions/refine", RefineRequest{SessionID: refining, Scheme: "lrf-csvm", K: 5})
		},
	} {
		resp, err := read()
		if err != nil {
			t.Errorf("%s during a commit parked in its journal append: %v", route, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s during a commit parked in its journal append: status %d", route, resp.StatusCode)
		}
	}

	close(journal.release)
	released = true
	if err := <-committed; err != nil {
		t.Fatalf("the commit: %v", err)
	}
	var status StatusResponse
	getJSON(t, srv.URL+"/api/status", &status)
	if status.LogSessions != sessions+1 {
		t.Errorf("/api/status counts %d log sessions after the commit, want %d", status.LogSessions, sessions+1)
	}
}
