package core

import (
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// syntheticCollection is a small two-modality collection used across the
// core tests: nCat visual clusters plus a simulated feedback log, together
// with ground-truth labels.
type syntheticCollection struct {
	visual     []linalg.Vector
	logVectors []*sparse.Vector
	labels     []int
}

// makeCollection builds a collection of nCat categories with nPer images
// each. Every category is visually bimodal — half its images cluster around
// one center, half around a distant second center, with centers of different
// categories interleaved — which reproduces the semantic-gap structure of
// the real datasets: visual distance alone cannot bridge the two modes of a
// category, while the feedback log links them. Log vectors come from the
// feedback-log simulator.
func makeCollection(t testing.TB, nCat, nPer, sessions int, noise float64, seed uint64) *syntheticCollection {
	t.Helper()
	rng := linalg.NewRNG(seed)
	var visual []linalg.Vector
	var labels []int
	for c := 0; c < nCat; c++ {
		for i := 0; i < nPer; i++ {
			mode := i % 2
			// Mode centers along a line: position (mode*nCat + c) * 3, so
			// same-category modes are nCat*3 apart while adjacent centers
			// belong to different categories.
			cx := float64((mode*nCat + c) * 3)
			visual = append(visual, linalg.Vector{
				cx + rng.Normal(0, 1.1),
				rng.Normal(0, 1.1),
				rng.Normal(0, 1),
				rng.Normal(0, 1),
			})
			labels = append(labels, c)
		}
	}
	log, err := feedbacklog.Simulate(visual, labels, feedbacklog.SimulatorConfig{
		Sessions: sessions, ReturnedPerSession: 12, NoiseRate: noise, ExplorationFraction: 0.35, Seed: seed + 1,
	})
	if err != nil {
		t.Fatalf("simulate log: %v", err)
	}
	return &syntheticCollection{visual: visual, logVectors: log.RelevanceVectors(), labels: labels}
}

// makeDenseLogCollection builds a collection at the shape of the benchmark's
// smallest workload: nCat categories of nPer images in 36 dimensions, each
// category a N(0,1)-per-dimension centre with within-category spread 1.6,
// and a log of the given number of sessions, each judging 20 distinct images
// by ground truth — ten of the query's category and ten from the whole
// collection. Its log vectors hold sessions·20/(nCat·nPer) entries on
// average, ~60 at 10×50 images and 1,500 sessions, where makeCollection's
// hold a few.
func makeDenseLogCollection(t testing.TB, nCat, nPer, sessions int, seed uint64) *syntheticCollection {
	t.Helper()
	const dim, sigma, page = 36, 1.6, 20
	rng := linalg.NewRNG(seed)
	centres := make([]linalg.Vector, nCat)
	for c := range centres {
		centres[c] = make(linalg.Vector, dim)
		for j := range centres[c] {
			centres[c][j] = rng.Normal(0, 1)
		}
	}
	n := nCat * nPer
	visual := make([]linalg.Vector, n)
	labels := make([]int, n)
	for i := range visual {
		labels[i] = i / nPer
		visual[i] = make(linalg.Vector, dim)
		for j := range visual[i] {
			visual[i][j] = centres[labels[i]][j] + rng.Normal(0, sigma)
		}
	}
	log := feedbacklog.NewLog(n)
	for s := 0; s < sessions; s++ {
		q := rng.Intn(n)
		judged := make(map[int]feedbacklog.Judgment, page)
		for len(judged) < page {
			img := rng.Intn(n)
			if len(judged) < page/2 {
				img = labels[q]*nPer + rng.Intn(nPer)
			}
			if _, ok := judged[img]; ok {
				continue
			}
			judged[img] = feedbacklog.Irrelevant
			if labels[img] == labels[q] {
				judged[img] = feedbacklog.Relevant
			}
		}
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: q, TargetCategory: labels[q], Judgments: judged}); err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	return &syntheticCollection{visual: visual, logVectors: log.RelevanceVectors(), labels: labels}
}

// queryContext builds a QueryContext for the given query image by labeling
// the top-k Euclidean neighbors with their ground-truth relevance, the same
// protocol the paper's evaluation uses.
func (c *syntheticCollection) queryContext(query, labeledK int) *QueryContext {
	dists := make([]float64, len(c.visual))
	for i := range c.visual {
		dists[i] = c.visual[query].SquaredDistance(c.visual[i])
	}
	order := linalg.ArgsortAsc(dists)
	if labeledK > len(order) {
		labeledK = len(order)
	}
	var labeled []LabeledExample
	for _, idx := range order[:labeledK] {
		label := -1.0
		if c.labels[idx] == c.labels[query] {
			label = 1.0
		}
		labeled = append(labeled, LabeledExample{Index: idx, Label: label})
	}
	return &QueryContext{
		Visual:     c.visual,
		LogVectors: c.logVectors,
		Query:      query,
		Labeled:    labeled,
	}
}

// precisionAt computes the fraction of the top-k ranked images that share
// the query's category.
func (c *syntheticCollection) precisionAt(scores []float64, query, k int) float64 {
	top := TopK(scores, k)
	relevant := 0
	for _, idx := range top {
		if c.labels[idx] == c.labels[query] {
			relevant++
		}
	}
	return float64(relevant) / float64(len(top))
}
