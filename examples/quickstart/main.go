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

	// 4. Issue a query: the user picks image 5 and judges the first 15 of
	// the top-20 initial results (simulated here with the category oracle).
	// The collection and the log are indexed once, as the retrieval engine
	// keeps them, and every round ranks only the top 20.
	query := 5
	ctx := &core.QueryContext{Batch: core.NewCollectionBatch(visual), LogIndex: fblog.ExtendIndex(nil), Query: query}
	euclTop, err := core.Euclidean{}.RankTop(ctx, 20)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range euclTop[:15] {
		label := -1.0
		if labels[r.Index] == labels[query] {
			label = 1.0
		}
		ctx.Labeled = append(ctx.Labeled, core.LabeledExample{Index: r.Index, Label: label})
	}

	// 5. Refine with the paper's log-based coupled SVM.
	csvmTop, err := core.LRFCSVM{}.RankTop(ctx, 20)
	if err != nil {
		log.Fatal(err)
	}

	printTop := func(name string, top []core.Ranked) float64 {
		relevant := 0
		fmt.Printf("%-22s top-20:", name)
		for _, r := range top {
			marker := " "
			if labels[r.Index] == labels[query] {
				relevant++
				marker = "+"
			}
			fmt.Printf(" %s%d", marker, r.Index)
		}
		p := float64(relevant) / 20
		fmt.Printf("\n%-22s precision@20 = %.2f\n\n", "", p)
		return p
	}
	pe := printTop("Euclidean (initial)", euclTop)
	pc := printTop("LRF-CSVM (1 round)", csvmTop)
	fmt.Printf("one feedback round with the user log improved precision@20 from %.2f to %.2f\n", pe, pc)
}
