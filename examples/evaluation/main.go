// Evaluation example: a small-scale study of the LRF-CSVM design choices —
// the unlabeled-selection strategy (the paper's max/min heuristic versus
// boundary-based active selection versus random drafting) and the number of
// drafted unlabeled images N'. It mirrors the discussion in Sections 5 and
// 6.5 of the paper.
//
// Run with:
//
//	go run ./examples/evaluation
package main

import (
	"fmt"
	"log"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/eval"
)

func main() {
	cfg := eval.CI20(13)
	cfg.Queries = 12
	exp, err := eval.Prepare(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Unlabeled-selection strategy study (Section 6.5)")
	strategies := []core.SelectionStrategy{core.SelectLogAssisted, core.SelectMaxMin, core.SelectBoundary, core.SelectRandom}
	schemes := []core.Scheme{core.RFSVM{}}
	for _, s := range strategies {
		schemes = append(schemes, core.LRFCSVMWithSelection{Strategy: s, RandomSeed: 3})
	}
	table, err := exp.Run("Selection strategies", schemes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.Format())

	fmt.Println("Number of drafted unlabeled images N'")
	var nuSchemes []core.Scheme
	for _, nu := range []int{8, 16, 32} {
		p := core.CSVMParams{NumUnlabeled: nu}
		nuSchemes = append(nuSchemes, renamed{core.LRFCSVM{Params: p}, fmt.Sprintf("LRF-CSVM N'=%d", nu)})
	}
	table2, err := exp.Run("Unlabeled pool size", nuSchemes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table2.Format())
}

// renamed gives an ablation variant a distinguishable name in the table.
type renamed struct {
	core.Scheme
	name string
}

func (r renamed) Name() string { return r.name }
