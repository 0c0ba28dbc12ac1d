// Quickstart: the end-to-end pipeline in one small program.
//
// It generates a tiny synthetic image collection, extracts the paper's
// 36-dimensional visual descriptors, simulates a user-feedback log, runs one
// query with an initial Euclidean round and a log-based coupled-SVM
// relevance-feedback round, and prints both result lists with the precision
// improvement.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/features"
	"lrfcsvm/internal/feedbacklog"
)

func main() {
	// 1. Generate a small synthetic collection: 6 categories x 30 images.
	gen, err := dataset.NewGenerator(dataset.Spec{
		Categories: 6, ImagesPerCategory: 30, Width: 48, Height: 48, Seed: 7, ExtraNoise: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	labels := gen.Labels()

	// 2. Extract and normalize the visual descriptors (color moments +
	// edge-direction histogram + wavelet texture = 36 dimensions).
	var extractor features.Extractor
	raw := extractor.ExtractAll(gen, 0)
	norm, err := features.FitNormalizer(raw)
	if err != nil {
		log.Fatal(err)
	}
	visual := norm.ApplyAll(raw)
	fmt.Printf("extracted %d descriptors of dimension %d\n", len(visual), features.Dim)

	// 3. Simulate a user-feedback log (the paper collects 150 sessions from
	// real users; here 40 simulated sessions suffice).
	fblog, err := feedbacklog.Simulate(visual, labels, feedbacklog.SimulatorConfig{
		Sessions: 40, ReturnedPerSession: 15, NoiseRate: 0.05, ExplorationFraction: 0.35, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := fblog.Stats()
	fmt.Printf("simulated %d log sessions covering %.0f%% of the collection\n\n", stats.Sessions, 100*stats.CoverageFraction)

	// 4. Issue a query: the user picks image 5 and judges the top-15
	// initial results (simulated here with the category oracle).
	query := 5
	ctx := &core.QueryContext{Visual: visual, LogVectors: fblog.RelevanceVectors(), Query: query}
	euclScores, err := core.Euclidean{}.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, idx := range core.TopK(euclScores, 15) {
		label := -1.0
		if labels[idx] == labels[query] {
			label = 1.0
		}
		ctx.Labeled = append(ctx.Labeled, core.LabeledExample{Index: idx, Label: label})
	}

	// 5. Refine with the paper's log-based coupled SVM.
	csvmScores, err := core.LRFCSVM{}.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}

	printTop := func(name string, scores []float64) float64 {
		top := core.TopK(scores, 20)
		relevant := 0
		fmt.Printf("%-22s top-20:", name)
		for _, idx := range top {
			marker := " "
			if labels[idx] == labels[query] {
				relevant++
				marker = "+"
			}
			fmt.Printf(" %s%d", marker, idx)
		}
		p := float64(relevant) / 20
		fmt.Printf("\n%-22s precision@20 = %.2f\n\n", "", p)
		return p
	}
	pe := printTop("Euclidean (initial)", euclScores)
	pc := printTop("LRF-CSVM (1 round)", csvmScores)
	fmt.Printf("one feedback round with the user log improved precision@20 from %.2f to %.2f\n", pe, pc)
}
