package main

import (
	"bytes"
	"os"
	"sort"
	"testing"
)

func generatedFiles(t *testing.T, sh shape, seed uint64) (features, log []byte) {
	t.Helper()
	d, err := generate(sh, seed)
	if err != nil {
		t.Fatal(err)
	}
	featuresPath, logPath, err := d.save(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if features, err = os.ReadFile(featuresPath); err != nil {
		t.Fatal(err)
	}
	if log, err = os.ReadFile(logPath); err != nil {
		t.Fatal(err)
	}
	return features, log
}

func TestSameSeedSameFiles(t *testing.T) {
	sh := shape{Categories: 12, PerCategory: 40, Sessions: 300}
	f1, l1 := generatedFiles(t, sh, 7)
	f2, l2 := generatedFiles(t, sh, 7)
	if !bytes.Equal(f1, f2) || !bytes.Equal(l1, l2) {
		t.Fatal("the same seed generated different features.bin or log.bin")
	}
	f3, l3 := generatedFiles(t, sh, 8)
	if bytes.Equal(f1, f3) || bytes.Equal(l1, l3) {
		t.Fatal("a second seed left features.bin or log.bin unchanged")
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	sh := shape{Categories: 12, PerCategory: 40, Sessions: 10}
	a, _ := generate(sh, 3)
	b, _ := generate(sh, 3)
	qa, qb := a.queries(3, 1, 50), b.queries(3, 1, 50)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("query %d differs between two generations of one seed", i)
		}
	}
	if other := a.queries(3, 0, 50); equalInts(qa, other) {
		t.Fatal("two clients drew the same query sequence")
	}
	ba, la := a.ingestBursts(3, 4, ingestBurst)
	bb, _ := b.ingestBursts(3, 4, ingestBurst)
	for i := range ba {
		for j := range ba[i] {
			if !equalFloats(ba[i][j], bb[i][j]) {
				t.Fatalf("ingest burst %d row %d differs between two generations of one seed", i, j)
			}
		}
		if len(la[i]) != ingestBurst {
			t.Fatalf("burst %d has %d labels", i, len(la[i]))
		}
	}
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func equalFloats(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestInitialPagesHoldBothLabels pins the property the generator exists for:
// at every collection shape the benchmark uses, the page a user judges first
// (the Euclidean top 20) nearly always holds both relevant and irrelevant
// images, so every refinement trains a two-class SVM.
func TestInitialPagesHoldBothLabels(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && w.Shape.images() > 10000 {
				t.Skip("large shape")
			}
			d, err := generate(w.Shape, 1)
			if err != nil {
				t.Fatal(err)
			}
			queries := d.queries(1, 0, 100)
			both, relevant := 0, 0
			for _, q := range queries {
				rel := 0
				for _, img := range nearest(d, q, resultK) {
					if d.Labels[img] == d.Labels[q] {
						rel++
					}
				}
				relevant += rel
				if rel > 0 && rel < resultK {
					both++
				}
			}
			t.Logf("%d images: %d of %d pages hold both labels, %.1f relevant per page", w.Shape.images(), both, len(queries), float64(relevant)/float64(len(queries)))
			if both*10 < len(queries)*9 {
				t.Fatalf("only %d of %d initial pages hold both labels", both, len(queries))
			}
		})
	}
}

// nearest is the brute-force Euclidean top k (ties to the lower index).
func nearest(d *dataset, q, k int) []int {
	type scored struct {
		img  int
		dist float64
	}
	best := make([]scored, 0, k+1)
	for i, v := range d.Visual {
		var sum float64
		for j := range v {
			diff := v[j] - d.Visual[q][j]
			sum += diff * diff
		}
		if len(best) == k && sum >= best[k-1].dist {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].dist > sum })
		best = append(best, scored{})
		copy(best[at+1:], best[at:])
		best[at] = scored{i, sum}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i := range out {
		out[i] = best[i].img
	}
	return out
}

func TestLogSessionsJudgeByGroundTruth(t *testing.T) {
	d, err := generate(shape{Categories: 12, PerCategory: 40, Sessions: 200}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Log.NumSessions(); got != 200 {
		t.Fatalf("log has %d sessions, want 200", got)
	}
	for _, s := range d.Log.Sessions() {
		if len(s.Judgments) != judgmentsPerSession {
			t.Fatalf("session %d has %d judgments, want %d", s.ID, len(s.Judgments), judgmentsPerSession)
		}
		rel := 0
		for img, j := range s.Judgments {
			same := d.Labels[img] == d.Labels[s.QueryImage]
			if same != (j > 0) {
				t.Fatalf("session %d judges image %d against ground truth", s.ID, img)
			}
			if same {
				rel++
			}
		}
		if rel < judgmentsPerSession/2 {
			t.Fatalf("session %d has %d relevant judgments, want at least half", s.ID, rel)
		}
	}
}
