package eval

import (
	"fmt"
	"runtime"
	"sync"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/features"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// Config describes one full experiment: a dataset, a simulated feedback log,
// a query workload and the schemes to compare.
type Config struct {
	// Dataset is the synthetic collection to generate and index.
	Dataset dataset.Spec
	// Log configures the simulated user-feedback log collection.
	Log feedbacklog.SimulatorConfig
	// Queries is the number of random evaluation queries (200 in the paper).
	Queries int
	// LabeledPerQuery is the number of top-ranked images whose relevance the
	// simulated user judges before feedback learning (20 in the paper).
	LabeledPerQuery int
	// Seed drives query sampling.
	Seed uint64
	// Workers bounds the number of concurrent workers used for feature
	// extraction and query evaluation; <=0 selects GOMAXPROCS.
	Workers int
}

// paperExtraNoise is the extra pixel noise applied to the synthetic
// datasets in the paper-reproduction profiles. It widens the visual semantic
// gap so the Euclidean baseline lands in a regime comparable to the paper's
// COREL results rather than trivially solving the synthetic categories.
const paperExtraNoise = 15

// Paper20 returns the configuration reproducing the paper's 20-Category
// experiment (Table 1 / Figure 3) at full scale.
func Paper20(seed uint64) Config {
	spec := dataset.Default20(seed)
	spec.ExtraNoise = paperExtraNoise
	return Config{
		Dataset:         spec,
		Log:             feedbacklog.DefaultSimulatorConfig(seed + 1),
		Queries:         200,
		LabeledPerQuery: 20,
		Seed:            seed + 2,
	}
}

// Paper50 returns the configuration reproducing the paper's 50-Category
// experiment (Table 2 / Figure 4) at full scale.
func Paper50(seed uint64) Config {
	spec := dataset.Default50(seed)
	spec.ExtraNoise = paperExtraNoise
	return Config{
		Dataset:         spec,
		Log:             feedbacklog.DefaultSimulatorConfig(seed + 1),
		Queries:         200,
		LabeledPerQuery: 20,
		Seed:            seed + 2,
	}
}

// CI20 and CI50 are scaled-down profiles of the two experiments used by unit
// tests and the default `go test -bench` run, keeping the protocol identical
// but shrinking the collection and the query count.
func CI20(seed uint64) Config {
	cfg := Paper20(seed)
	cfg.Dataset.Categories = 8
	cfg.Dataset.ImagesPerCategory = 24
	cfg.Dataset.Width, cfg.Dataset.Height = 32, 32
	cfg.Log.Sessions = 60
	cfg.Log.ReturnedPerSession = 12
	cfg.Queries = 24
	return cfg
}

// CI50 is the scaled-down 50-Category profile.
func CI50(seed uint64) Config {
	cfg := CI20(seed)
	cfg.Dataset.Categories = 12
	return cfg
}

func (c Config) withDefaults() Config {
	if c.LabeledPerQuery <= 0 {
		c.LabeledPerQuery = 20
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Experiment is a prepared experiment: the collection's extracted visual
// descriptors, the simulated feedback log, and the ground-truth labels the
// automatic relevance judge uses.
type Experiment struct {
	Config Config

	Visual   []linalg.Vector
	Labels   []int
	LogStats feedbacklog.Stats

	// batch is Visual indexed and logIndex the log indexed by session and by
	// image, built once: the collection and the log of every query context
	// the experiment hands out.
	batch    *core.CollectionBatch
	logIndex *kernel.LogIndex
}

// Prepare generates the dataset, extracts and normalizes the visual
// descriptors, and collects the simulated feedback log.
func Prepare(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	gen, err := dataset.NewGenerator(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("eval: dataset: %w", err)
	}
	var extractor features.Extractor
	raw := extractor.ExtractAll(gen, cfg.Workers)
	norm, err := features.FitNormalizer(raw)
	if err != nil {
		return nil, fmt.Errorf("eval: normalizer: %w", err)
	}
	visual := norm.ApplyAll(raw)
	labels := gen.Labels()
	log, err := feedbacklog.Simulate(visual, labels, cfg.Log)
	if err != nil {
		return nil, fmt.Errorf("eval: log simulation: %w", err)
	}
	return &Experiment{
		Config:   cfg,
		Visual:   visual,
		Labels:   labels,
		LogStats: log.Stats(),
		batch:    core.NewCollectionBatch(visual),
		logIndex: log.ExtendIndex(nil),
	}, nil
}

// DefaultSchemes returns the four schemes of the paper's comparison in the
// order of the paper's tables: Euclidean, RF-SVM, LRF-2SVMs, LRF-CSVM.
func (e *Experiment) DefaultSchemes() []core.Scheme {
	return []core.Scheme{
		core.Euclidean{},
		core.RFSVM{},
		core.LRF2SVMs{},
		core.LRFCSVM{},
	}
}

// QueryContext builds the query context of one evaluation query: the top
// LabeledPerQuery images by Euclidean visual distance are judged by the
// automatic relevance oracle (same category as the query), exactly the
// paper's protocol.
func (e *Experiment) QueryContext(query int) *core.QueryContext {
	dists := make([]float64, len(e.Visual))
	for i := range e.Visual {
		dists[i] = e.Visual[query].SquaredDistance(e.Visual[i])
	}
	order := linalg.ArgsortAsc(dists)
	k := e.Config.LabeledPerQuery
	if k > len(order) {
		k = len(order)
	}
	labeled := make([]core.LabeledExample, 0, k)
	for _, idx := range order[:k] {
		label := -1.0
		if e.Labels[idx] == e.Labels[query] {
			label = 1.0
		}
		labeled = append(labeled, core.LabeledExample{Index: idx, Label: label})
	}
	return &core.QueryContext{
		LogIndex: e.logIndex,
		Query:    query,
		Labeled:  labeled,
		Workers:  e.Config.Workers,
		Batch:    e.batch,
	}
}

// SampleQueries draws the evaluation query set (uniformly at random with the
// experiment seed, without replacement when possible).
func (e *Experiment) SampleQueries() []int {
	rng := linalg.NewRNG(e.Config.Seed)
	n := len(e.Visual)
	q := e.Config.Queries
	if q <= n {
		perm := rng.Perm(n)
		return perm[:q]
	}
	out := make([]int, q)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// Relevant returns the relevance oracle for one query: image i is relevant
// iff it shares the query's category.
func (e *Experiment) Relevant(query int) []bool {
	out := make([]bool, len(e.Labels))
	for i, l := range e.Labels {
		out[i] = l == e.Labels[query]
	}
	return out
}

// RunScheme evaluates one scheme over the experiment's query set and returns
// its averaged precision row. A row is the mean over every query or it is
// nothing: when any query fails, RunScheme fails with the scheme, the number
// of failed queries and the error of the lowest-numbered one, rather than
// average whichever queries survived under the full set's header.
func (e *Experiment) RunScheme(scheme core.Scheme, queries []int) (Row, error) {
	cutoffs := Cutoffs
	// Each query's precisions and error land in the query's own slot and are
	// summed in query order below, so a row does not depend on which worker
	// finished first: any Workers value gives the same bits.
	precisions := make([][]float64, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup

	work := make(chan int)
	workers := e.Config.Workers
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range work {
				q := queries[qi]
				ctx := e.QueryContext(q)
				if workers > 1 {
					// Query-level parallelism already saturates the
					// workers budget; keep each ranking serial instead
					// of multiplying the two levels.
					ctx.Workers = 1
				}
				// The strict (score, index) order makes every cutoff's top k a
				// prefix of the deepest one's, so one ranking serves them all.
				ranked, err := scheme.RankTopAppend(ctx, cutoffs[len(cutoffs)-1], nil)
				if err != nil {
					errs[qi] = err
					continue
				}
				relevant := e.Relevant(q)
				precisions[qi] = make([]float64, len(cutoffs))
				for ci, k := range cutoffs {
					precisions[qi][ci] = PrecisionAt(ranked, relevant, k)
				}
			}
		}()
	}
	for qi := range queries {
		work <- qi
	}
	close(work)
	wg.Wait()

	failed, first := 0, -1
	for qi, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if first < 0 || queries[qi] < queries[first] {
			first = qi
		}
	}
	if failed > 0 {
		return Row{}, fmt.Errorf("eval: scheme %s failed on %d of %d queries, first on query %d: %w",
			scheme.Name(), failed, len(queries), queries[first], errs[first])
	}
	curve := make([]float64, len(cutoffs))
	for _, p := range precisions {
		for ci := range curve {
			curve[ci] += p[ci]
		}
	}
	for i := range curve {
		curve[i] /= float64(len(queries))
	}
	return Row{Scheme: scheme.Name(), Precision: curve, MAP: MeanAveragePrecision(curve)}, nil
}

// Run evaluates the given schemes (or the default four when nil) over the
// experiment's query workload and assembles the results table.
func (e *Experiment) Run(name string, schemes []core.Scheme) (*Table, error) {
	if schemes == nil {
		schemes = e.DefaultSchemes()
	}
	queries := e.SampleQueries()
	table := &Table{
		Name:    name,
		Dataset: fmt.Sprintf("%d-Category (%d images, %d log sessions)", e.Config.Dataset.Categories, len(e.Visual), e.LogStats.Sessions),
		Queries: len(queries),
		Cutoffs: Cutoffs,
	}
	for _, s := range schemes {
		row, err := e.RunScheme(s, queries)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}
