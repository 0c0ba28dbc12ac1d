package feedbacklog_test

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/storage"
)

// TestClonesGrowApart: a clone shares its log's storage, and the original
// and its clones grow at once, each on a goroutine of its own — the engine
// commits while its snapshotter writes a clone, and the benchmark grows a
// clone of the engine's log. Each log must then give back exactly its own
// sessions through Sessions, ExtendIndex (an index kept from before the
// clone and extended, or a new one) and WriteLog: what a log of the same
// sessions added afresh gives.
func TestClonesGrowApart(t *testing.T) {
	const images = 500
	session := func(rng *linalg.RNG) feedbacklog.Session {
		judged := make(map[int]feedbacklog.Judgment)
		for len(judged) < 20 {
			judged[rng.Intn(images)] = feedbacklog.Judgment(2*rng.Intn(2) - 1)
		}
		return feedbacklog.Session{QueryImage: rng.Intn(images), TargetCategory: rng.Intn(10), Judgments: judged}
	}
	add := func(log *feedbacklog.Log, s feedbacklog.Session) {
		if _, err := log.AddSession(s); err != nil {
			panic(err) // sessions are drawn inside the collection
		}
	}
	rng := linalg.NewRNG(3)
	var base []feedbacklog.Session
	original := feedbacklog.NewLog(images)
	for range 50 {
		base = append(base, session(rng))
		add(original, base[len(base)-1])
	}
	kept := original.ExtendIndex(nil)
	grown := original.Clone()
	logs := []*feedbacklog.Log{original, grown, grown.Clone(), original.Clone()}
	want := make([][]feedbacklog.Session, len(logs))
	written := make([][]byte, len(logs))
	var wg sync.WaitGroup
	for k, log := range logs {
		want[k] = slices.Clone(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k == len(logs)-1 { // the snapshot: written while the others grow
				var buf bytes.Buffer
				if err := storage.WriteLog(&buf, log); err != nil {
					panic(err)
				}
				written[k] = buf.Bytes()
				return
			}
			rng := linalg.NewRNG(uint64(10 + k))
			for range 30 + 20*k {
				want[k] = append(want[k], session(rng))
				add(log, want[k][len(want[k])-1])
			}
		}()
	}
	wg.Wait()
	for k, log := range logs {
		fresh := feedbacklog.NewLog(images)
		for _, s := range want[k] {
			add(fresh, s)
		}
		if got := log.Sessions(); !reflect.DeepEqual(got, fresh.Sessions()) {
			t.Errorf("log %d: its %d sessions are not the %d it was given", k, len(got), len(want[k]))
		}
		ix := log.ExtendIndex(nil)
		if k == 0 {
			ix = log.ExtendIndex(kept)
		}
		if freshIx := fresh.ExtendIndex(nil); !reflect.DeepEqual(ix.Sessions(), freshIx.Sessions()) {
			t.Errorf("log %d: its index by session is not its own sessions'", k)
		} else {
			for i := range images {
				if got, want := ix.Column(i), freshIx.Column(i); got.Dim != want.Dim || !slices.Equal(got.Entries, want.Entries) {
					t.Errorf("log %d: image %d's column is %+v, want %+v", k, i, got, want)
					break
				}
			}
		}
		var buf bytes.Buffer
		if written[k] == nil {
			if err := storage.WriteLog(&buf, log); err != nil {
				t.Fatal(err)
			}
			written[k] = buf.Bytes()
		}
		buf.Reset()
		if err := storage.WriteLog(&buf, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written[k], buf.Bytes()) {
			t.Errorf("log %d writes %d bytes that are not its own sessions' %d", k, len(written[k]), buf.Len())
		}
	}
}
