// Evaluation example: a small-scale study of two LRF-CSVM design choices —
// the unlabeled-selection strategy (the paper's max/min heuristic versus
// boundary-based active selection versus random drafting) and the number of
// drafted unlabeled images N'. It mirrors the discussion in Sections 5 and
// 6.5 of the paper, and runs two of the sweeps `lrfbench -ablation` runs at
// paper scale (eval.Ablations is the list).
//
// Run with:
//
//	go run ./examples/evaluation
package main

import (
	"fmt"
	"log"

	"lrfcsvm/internal/eval"
)

func main() {
	cfg := eval.CI20(13)
	cfg.Queries = 12
	exp, err := eval.Prepare(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, sweep := range eval.Ablations {
		if sweep.Name != "selection" && sweep.Name != "unlabeled" {
			continue
		}
		table, err := exp.RunAblation(sweep, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(table.Format())
	}
}
