package main

import (
	"fmt"
	"path/filepath"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/storage"
)

// Everything the program under test sees is generated here from the seed:
// the descriptor file, the initial log file, the per-client query sequences
// and the descriptors the ingest bursts post. The same seed gives
// byte-identical files; the server never sees the seed itself.

const (
	// descriptorDim is the paper's descriptor: 9 colour moments + 18 edge
	// histogram bins + 9 wavelet energies.
	descriptorDim = 36
	// withinClassSigma spreads each category around its N(0,1)-per-dim centre
	// widely enough that an initial Euclidean top-20 holds both relevant and
	// irrelevant images (so the SMO problem has two classes), narrowly enough
	// that feedback has something to learn.
	withinClassSigma = 1.6
	// judgmentsPerSession is the paper's result page: 20 judged images.
	judgmentsPerSession = 20
)

// centreSeed seeds the category centres of every generated collection.
const centreSeed = 0x5eedc3a7e5

// shape is the size of a generated collection and of its initial log.
type shape struct {
	Categories  int
	PerCategory int
	Sessions    int
}

func (s shape) images() int { return s.Categories * s.PerCategory }

// Streams of the seed. Each input has its own generator so that, say, asking
// for more ingest descriptors never shifts the query sequences.
const (
	streamImages = iota + 1
	streamLog
	streamIngest
	streamClient // + client number
)

// streamRNG derives the generator of one input stream from the run seed
// (splitmix64 finaliser over seed and stream, so nearby seeds and streams
// give unrelated sequences).
func streamRNG(seed uint64, stream int) *linalg.RNG {
	z := seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return linalg.NewRNG(z)
}

// dataset is one generated collection with its ground truth.
type dataset struct {
	Shape   shape
	Visual  []linalg.Vector
	Labels  []int // category of every image; the judging oracle
	Log     *feedbacklog.Log
	centres []linalg.Vector
}

// generate builds the collection and its initial log.
func generate(sh shape, seed uint64) (*dataset, error) {
	if sh.Categories <= 0 || sh.PerCategory <= 0 {
		return nil, fmt.Errorf("gen: empty shape %+v", sh)
	}
	d := &dataset{Shape: sh}
	// The category centres are part of the workload, not of the seed: every
	// seed draws different images, log sessions and queries around the same
	// centres. How far apart two categories happen to lie decides how many
	// support vectors a refine needs; were that redrawn per seed, runs of
	// different seeds would time different problems.
	rng := linalg.NewRNG(centreSeed)
	d.centres = make([]linalg.Vector, sh.Categories)
	for c := range d.centres {
		d.centres[c] = make(linalg.Vector, descriptorDim)
		for j := range d.centres[c] {
			d.centres[c][j] = rng.Normal(0, 1)
		}
	}
	rng = streamRNG(seed, streamImages)
	n := sh.images()
	d.Visual = make([]linalg.Vector, n)
	d.Labels = make([]int, n)
	for i := 0; i < n; i++ {
		d.Labels[i] = i / sh.PerCategory
		d.Visual[i] = d.sample(rng, d.Labels[i])
	}

	// The initial log is written session by session: a query image, ten
	// images of its category and ten drawn from the whole collection, each
	// judged by ground truth. (feedbacklog.Simulate ranks the collection per
	// session and took 49 s at 100,000 images in the sizing run.)
	rng = streamRNG(seed, streamLog)
	d.Log = feedbacklog.NewLog(n)
	for s := 0; s < sh.Sessions; s++ {
		q := rng.Intn(n)
		judged := make(map[int]feedbacklog.Judgment, judgmentsPerSession)
		for _, img := range d.page(rng, q) {
			judged[img] = judgmentOf(d.Labels[img] == d.Labels[q])
		}
		if _, err := d.Log.AddSession(feedbacklog.Session{QueryImage: q, TargetCategory: d.Labels[q], Judgments: judged}); err != nil {
			return nil, fmt.Errorf("gen: session %d: %w", s, err)
		}
	}
	return d, nil
}

// page draws the 20 distinct images one log session judges for query q: half
// from the query's category, half from the whole collection.
func (d *dataset) page(rng *linalg.RNG, q int) []int {
	per, n := d.Shape.PerCategory, d.Shape.images()
	size := judgmentsPerSession
	if size > n {
		size = n
	}
	own := size / 2
	if own > per {
		own = per
	}
	seen := make(map[int]bool, size)
	page := make([]int, 0, size)
	for len(page) < size {
		img := rng.Intn(n)
		if len(page) < own {
			img = d.Labels[q]*per + rng.Intn(per)
		}
		if !seen[img] {
			seen[img] = true
			page = append(page, img)
		}
	}
	return page
}

func judgmentOf(relevant bool) feedbacklog.Judgment {
	if relevant {
		return feedbacklog.Relevant
	}
	return feedbacklog.Irrelevant
}

// sample draws one descriptor of the given category.
func (d *dataset) sample(rng *linalg.RNG, category int) linalg.Vector {
	v := make(linalg.Vector, descriptorDim)
	for j := range v {
		v[j] = d.centres[category][j] + rng.Normal(0, withinClassSigma)
	}
	return v
}

// save writes features.bin and log.bin into dir, as featextract and loggen
// would have.
func (d *dataset) save(dir string) (featuresPath, logPath string, err error) {
	featuresPath = filepath.Join(dir, "features.bin")
	logPath = filepath.Join(dir, "log.bin")
	if err := storage.SaveFeatures(featuresPath, d.Visual, d.Labels); err != nil {
		return "", "", err
	}
	if err := storage.SaveLog(logPath, d.Log); err != nil {
		return "", "", err
	}
	return featuresPath, logPath, nil
}

// queries returns the query images of one client: uniform draws from the
// initial collection.
func (d *dataset) queries(seed uint64, client, count int) []int {
	rng := streamRNG(seed, streamClient+client)
	qs := make([]int, count)
	for i := range qs {
		qs[i] = rng.Intn(len(d.Visual))
	}
	return qs
}

// ingestBursts returns count bursts of burst new descriptors each, with the
// category of every one; categories rotate so the collection keeps its mix.
func (d *dataset) ingestBursts(seed uint64, count, burst int) (descriptors [][]linalg.Vector, labels [][]int) {
	rng := streamRNG(seed, streamIngest)
	descriptors = make([][]linalg.Vector, count)
	labels = make([][]int, count)
	for b := range descriptors {
		descriptors[b] = make([]linalg.Vector, burst)
		labels[b] = make([]int, burst)
		for i := range descriptors[b] {
			cat := (b*burst + i) % d.Shape.Categories
			labels[b][i] = cat
			descriptors[b][i] = d.sample(rng, cat)
		}
	}
	return descriptors, labels
}
