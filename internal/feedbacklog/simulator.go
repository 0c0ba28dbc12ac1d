package feedbacklog

import (
	"fmt"
	"sort"

	"lrfcsvm/internal/linalg"
)

// SimulatorConfig controls simulated log collection.
//
// The paper collected 150 sessions per dataset from real users through a
// CBIR system with a relevance-feedback interface: each session shows the
// user the top-20 images by low-level visual similarity to a query and the
// user ticks the relevant ones. Real users are unavailable here, so the
// simulator reproduces that collection protocol against the category ground
// truth and injects label noise, which the paper stresses is present in real
// logs (see README "Layout" and EXPERIMENTS.md "How to regenerate").
type SimulatorConfig struct {
	// Sessions is the number of log sessions to collect (M). The paper uses
	// 150 per dataset.
	Sessions int
	// ReturnedPerSession is the number of images shown and judged per
	// session (20 in the paper).
	ReturnedPerSession int
	// NoiseRate is the probability that a single judgment is flipped,
	// modeling user subjectivity and mistakes. The paper does not quantify
	// its log noise; 0.05-0.10 is a realistic default.
	NoiseRate float64
	// ExplorationFraction is the fraction of each session's shown images
	// that are drawn from the user's target category at random rather than
	// from the visual top-k of the query. A log session in the paper is one
	// relevance-feedback round of a live CBIR system; by the time a user
	// reaches later rounds, the refined result list surfaces semantically
	// relevant images that are not visual neighbors of the original query,
	// and the user marks them relevant. This is precisely what gives the
	// log its value beyond the visual features; without it the log would
	// merely restate visual similarity. Default 0.35.
	ExplorationFraction float64
	// Seed makes collection deterministic.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c SimulatorConfig) Validate() error {
	switch {
	case c.Sessions <= 0:
		return fmt.Errorf("feedbacklog: sessions must be positive, got %d", c.Sessions)
	case c.ReturnedPerSession <= 0:
		return fmt.Errorf("feedbacklog: returned-per-session must be positive, got %d", c.ReturnedPerSession)
	case c.NoiseRate < 0 || c.NoiseRate >= 1:
		return fmt.Errorf("feedbacklog: noise rate must be in [0,1), got %v", c.NoiseRate)
	case c.ExplorationFraction < 0 || c.ExplorationFraction > 1:
		return fmt.Errorf("feedbacklog: exploration fraction must be in [0,1], got %v", c.ExplorationFraction)
	}
	return nil
}

// DefaultSimulatorConfig mirrors the paper's collection protocol: 150
// sessions of 20 judged images each, with 5% judgment noise and roughly a
// third of each session's images surfaced by feedback-round exploration.
func DefaultSimulatorConfig(seed uint64) SimulatorConfig {
	return SimulatorConfig{Sessions: 150, ReturnedPerSession: 20, NoiseRate: 0.05, ExplorationFraction: 0.35, Seed: seed}
}

// Simulate collects a feedback log over a collection described by its visual
// feature vectors and ground-truth category labels.
//
// Each session follows the paper's collection protocol: a query image is
// drawn uniformly at random and ReturnedPerSession images are "shown to the
// user". Most of the shown images are the visual top-k of the query (the
// system's initial result list); an ExplorationFraction of them are drawn at
// random from the query's category, modeling the semantically relevant
// images that later feedback rounds of a live CBIR session surface. Each
// shown image is judged relevant when it shares the query's category and
// irrelevant otherwise, and every judgment is flipped with probability
// NoiseRate.
func Simulate(visual []linalg.Vector, labels []int, cfg SimulatorConfig) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(visual) == 0 || len(visual) != len(labels) {
		return nil, fmt.Errorf("feedbacklog: need matching features and labels, got %d and %d", len(visual), len(labels))
	}
	n := len(visual)
	returned := cfg.ReturnedPerSession
	if returned > n {
		returned = n
	}
	// Group image indices by category for exploration sampling.
	byCategory := make(map[int][]int)
	for i, c := range labels {
		byCategory[c] = append(byCategory[c], i)
	}
	rng := linalg.NewRNG(cfg.Seed)
	log := NewLog(n)
	for s := 0; s < cfg.Sessions; s++ {
		query := rng.Intn(n)
		shown := make(map[int]bool, returned)

		// Exploration part: images of the target category surfaced by later
		// feedback rounds.
		category := byCategory[labels[query]]
		nExplore := int(cfg.ExplorationFraction * float64(returned))
		for attempts := 0; len(shown) < nExplore && attempts < 10*nExplore; attempts++ {
			shown[category[rng.Intn(len(category))]] = true
		}
		// Initial-result part: the visual top-k of the query, skipping
		// images already surfaced by exploration.
		for _, img := range nearestByEuclidean(visual, query, returned) {
			if len(shown) >= returned {
				break
			}
			shown[img] = true
		}

		// Judge in deterministic (sorted) order so the noise stream is
		// reproducible for a given seed.
		shownList := make([]int, 0, len(shown))
		for img := range shown {
			shownList = append(shownList, img)
		}
		sort.Ints(shownList)
		judgments := make(map[int]Judgment, len(shownList))
		for _, img := range shownList {
			j := Irrelevant
			if labels[img] == labels[query] {
				j = Relevant
			}
			if rng.Bool(cfg.NoiseRate) {
				j = -j
			}
			judgments[img] = j
		}
		if _, err := log.AddSession(Session{
			QueryImage:     query,
			TargetCategory: labels[query],
			Judgments:      judgments,
		}); err != nil {
			return nil, err
		}
	}
	return log, nil
}

// nearestByEuclidean returns the indices of the k images closest to the
// query in visual feature space (the query itself is included, as it is in a
// real CBIR result list).
func nearestByEuclidean(visual []linalg.Vector, query, k int) []int {
	dists := make([]float64, len(visual))
	for i := range visual {
		dists[i] = visual[query].SquaredDistance(visual[i])
	}
	order := linalg.ArgsortAsc(dists)
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}
