package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/storage"
	"lrfcsvm/internal/svm"
)

// Layer probes: direct calls into single public functions of the layers
// below the ranking schemes, on inputs taken from the traced requests (the
// training problems they produced, the first shard of the collection they
// scanned). Each probe is a span of class "probe"; the metric is the median
// over its repetitions.

const (
	probeReps      = 15 // repetitions of a probe that scans the collection
	probeRepsLight = 60 // repetitions of a probe on a training-set-sized input
)

// probe runs fn reps times as spans and returns the median duration.
func (r *tracedRun) probe(layer, name string, reps int, fn func()) time.Duration {
	tid := r.t.newTrace()
	durs := make([]float64, reps)
	for i := range durs {
		_, d := r.t.time(tid, 0, "probe", layer, name, fn)
		durs[i] = float64(d)
	}
	return time.Duration(median(durs))
}

// probes measures the single-function metrics on the state the read loops
// left pinned (nothing has been committed or ingested into main yet).
func (r *tracedRun) probes() error {
	if len(r.saved) == 0 {
		return fmt.Errorf("no refine was traced: nothing to probe")
	}
	m := r.rep.Metrics
	var err error

	// The ranking scheme the workload does not run, split the same way, so
	// every workload reports both schemes' parts at its collection size.
	other := retrieval.SchemeLRF2SVMs
	if r.w.Scheme == string(other) {
		other = retrieval.SchemeLRFCSVM
	}
	for _, qctx := range r.saved {
		parts, err := r.schemeSteps(0, other, qctx)
		if err != nil {
			return err
		}
		whole := step{layer: layerCore, name: "RankTop " + string(other), parent: -1, fn: func() error {
			_, err := core.RankTop(schemeOf(other), qctx, resultK)
			return err
		}}
		if _, err := r.replay("probe", append([]step{whole}, parts...)); err != nil {
			return err
		}
	}

	// Training-set-sized inputs: the visual modality of the coupled problems
	// of the saved requests (20 labeled points in round one, up to 40 in
	// round two, plus the drafted unlabeled ones).
	csvm := schemeOf(retrieval.SchemeLRFCSVM).(core.LRFCSVM)
	var trainDurs, trainIters, gramDurs []float64
	var model *svm.Model
	var rbf kernel.RBF
	for _, qctx := range r.saved {
		mods, labels, _, err := csvm.TrainingProblem(qctx)
		if err != nil {
			return err
		}
		visual := mods[0]
		problem := svm.NewProblem(visual.Labeled, labels, visual.C)
		d := r.probe(layerSVM, "svm.Train visual labeled", probeRepsLight/4, func() { model, err = svm.Train(problem, svm.Config{Kernel: visual.Kernel}) })
		if err != nil {
			return err
		}
		trainDurs, trainIters = append(trainDurs, us(d)), append(trainIters, float64(model.Iterations))
		points := append(append([]kernel.Point(nil), visual.Labeled...), visual.Unlabeled...)
		set := kernel.NewDenseSet(vectorsOf(points))
		d = r.probe(layerKernel, "kernel.GramSet training set", probeRepsLight/4, func() { kernel.GramSet(visual.Kernel, set) })
		gramDurs = append(gramDurs, us(d))
		rbf, _ = visual.Kernel.(kernel.RBF)
	}
	m["svm.train_us"] = median(trainDurs)
	m["svm.iterations"] = linalg.Vector(trainIters).Mean()
	m["kernel.gram_us"] = median(gramDurs)

	// Shard-sized inputs: the first shard of the collection.
	shard := r.batch.VisualSet().Shard(0)
	rows := float64(shard.Len())
	dst, buf := make([]float64, shard.Len()), make([]float64, shard.Len())
	d := r.probe(layerSVM, "Model.DecisionSet one shard", probeReps, func() { model.DecisionSet(shard, dst, buf) })
	m["svm.decision_set_ns_per_row"] = float64(d) / rows
	x := r.visual[r.saved[0].Query]
	d = r.probe(layerKernel, "RBF.EvalSet one shard", probeRepsLight, func() { rbf.EvalSet(x, shard, dst) })
	m["kernel.evalset_ns_per_row"] = float64(d) / rows
	svs := kernel.NewDenseSet(vectorsOf(model.SupportPoints))
	d = r.probe(layerKernel, "RBF.AccumulateSet one shard", probeReps, func() { rbf.AccumulateSet(model.Coefficients, svs, shard, dst) })
	m["kernel.accumulate_ns_per_row_sv"] = float64(d) / rows / float64(svs.Len())
	r.rep.Info["probe shard rows count"] = rows
	r.rep.Info["probe model support vectors count"] = float64(svs.Len())
	n := len(r.visual)
	m["kernel.scan_bytes_per_query"] = float64(n*descriptorDim*8 + n*8) // rows + squared norms; computed, not measured

	// Collection-sized inputs.
	qctx := &core.QueryContext{Visual: r.visual, Query: r.saved[0].Query, Batch: r.batch, Ctx: r.ctx}
	scores, err := core.Euclidean{}.Rank(qctx)
	if err != nil {
		return err
	}
	m["core.topk_us"] = us(r.probe(layerCore, "core.TopK k=20", probeReps, func() { core.TopK(scores, resultK) }))

	if err := r.laneProbes(); err != nil {
		return err
	}

	log := r.main.engine.Log()
	m["feedbacklog.relevance_vectors_ms"] = ms(r.probe(layerFeedbackLog, "Log.RelevanceVectors", probeReps, func() { log.RelevanceVectors() }))
	grown := log.Clone()
	prev, prevSessions := grown.RelevanceVectors(), grown.NumSessions()
	if _, err := grown.AddSession(log.Sessions()[0]); err != nil {
		return err
	}
	m["feedbacklog.extend_vectors_us"] = us(r.probe(layerFeedbackLog, "Log.ExtendRelevanceVectors one session", probeReps, func() { grown.ExtendRelevanceVectors(prev, prevSessions) }))

	m["server.metrics_scrape_us"] = us(r.probe(layerTransport, "GET /metrics", probeRepsLight, func() { _, err = r.over(http.MethodGet, "/metrics", nil) }))
	if err != nil {
		return err
	}
	m["metrics.write_text_us"] = us(r.probe(layerMetrics, "Handler.ServeHTTP /metrics", probeRepsLight, func() { r.main.serve(http.MethodGet, "/metrics", nil) }))
	return nil
}

// laneProbes times the two opt-in approximate lanes of the initial query —
// IVF candidates and the int8 scan — against the exhaustive scan at this
// workload's collection size. No end-to-end workload enables them; these are
// the lane audit's numbers.
func (r *tracedRun) laneProbes() error {
	m := r.rep.Metrics
	var err error
	var index *kernel.CentroidIndex
	m["kernel.ivf_build_ms"] = ms(r.probe(layerKernel, "kernel.BuildCentroidIndex", 1, func() {
		index, err = kernel.BuildCentroidIndex(r.ctx, r.batch.VisualSet(), kernel.CentroidConfig{})
	}))
	if err != nil {
		return err
	}
	m["kernel.quant_build_ms"] = ms(r.probe(layerKernel, "kernel.NewQuantizedSet", 1, func() { r.batch.QuantizedVisualSet() }))

	nprobe := index.NumClusters() / 4 // the server's default probe width
	if nprobe < 1 {
		nprobe = 1
	}
	var probeDurs, annDurs, quantDurs, recalls []float64
	queries := r.data.queries(r.rep.Env.Seed, 3, probeReps)
	for _, q := range queries {
		qctx := &core.QueryContext{Visual: r.visual, Query: q, Batch: r.batch, Ctx: r.ctx}
		var cells []int
		probeDurs = append(probeDurs, us(r.probe(layerKernel, "CentroidIndex.Probe", 1, func() { cells = index.Probe(r.visual[q], nprobe) })))
		cands := core.CandidateSet{Lists: make([][]int32, len(cells)), TailStart: index.Len()}
		for i, c := range cells {
			cands.Lists[i] = index.Members(c)
		}
		var approx, exact []core.Ranked
		annDurs = append(annDurs, us(r.probe(layerCore, "Euclidean.RankTopCandidates", 1, func() { approx, err = core.Euclidean{}.RankTopCandidates(qctx, cands, resultK, nil) })))
		if err != nil {
			return err
		}
		quantDurs = append(quantDurs, us(r.probe(layerCore, "Euclidean.RankTopQuantized", 1, func() { _, err = core.Euclidean{}.RankTopQuantized(qctx, resultK, 0, nil) })))
		if err != nil {
			return err
		}
		if exact, err = (core.Euclidean{}).RankTop(qctx, resultK); err != nil {
			return err
		}
		in := make(map[int]bool, len(exact))
		for _, e := range exact {
			in[e.Index] = true
		}
		hits := 0
		for _, a := range approx {
			if in[a.Index] {
				hits++
			}
		}
		recalls = append(recalls, float64(hits)/float64(len(exact)))
	}
	m["kernel.ivf_probe_us"] = median(probeDurs)
	m["core.ann_scan_us"] = median(annDurs)
	m["core.quant_scan_us"] = median(quantDurs)
	m["core.ann_recall_at_20"] = linalg.Vector(recalls).Mean()
	r.rep.Info["ann clusters count"] = float64(index.NumClusters())
	r.rep.Info["ann nprobe count"] = float64(nprobe)
	return nil
}

// storageProbes times snapshot writing and journal replay on what the write
// loops left behind: the raw journal holds one session and one image burst
// per write loop on top of the generated files.
func (r *tracedRun) storageProbes(dir string, initialVisual []linalg.Vector) error {
	m := r.rep.Metrics
	var err error
	snapPath := filepath.Join(dir, "probe.snap")
	m["storage.snapshot_ms"] = ms(r.probe(layerStorage, "storage.SaveSnapshotAt", 3, func() {
		err = storage.SaveSnapshotAt(snapPath, r.rawVisual, r.rawLog, r.rawJournal.LastSeq())
	}))
	if err != nil {
		return err
	}
	records := r.rawJournal.Stats().Records
	if err := r.rawJournal.Sync(); err != nil {
		return err
	}
	var replays []float64
	for i := 0; i < 3; i++ {
		// Replay seals the file it opens, so each repetition gets a copy.
		copyPath := filepath.Join(dir, fmt.Sprintf("replay-%d.wal", i))
		if err := copyFile(filepath.Join(dir, "raw.wal"), copyPath); err != nil {
			return err
		}
		base := r.data.Log.Clone()
		var journal *storage.Journal
		var stats storage.ReplayStats
		replays = append(replays, ms(r.probe(layerStorage, "storage.OpenJournal replay", 1, func() {
			journal, _, stats, err = storage.OpenJournal(copyPath, initialVisual, base, storage.JournalOptions{})
		})))
		if err != nil {
			return err
		}
		journal.Close()
		if int64(stats.Records) != records {
			return fmt.Errorf("replay applied %d records, journal holds %d", stats.Records, records)
		}
	}
	m["storage.replay_ms"] = median(replays)
	r.rep.Info["storage.replay_ms journal records count"] = float64(records)
	return nil
}

func vectorsOf(points []kernel.Point) []linalg.Vector {
	out := make([]linalg.Vector, len(points))
	for i, p := range points {
		out[i] = linalg.Vector(p.(kernel.Dense)) // visual-modality points are dense by construction
	}
	return out
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
