// Package eval implements the paper's evaluation harness: average precision
// at top-N cutoffs, mean average precision over cutoffs, the automatic
// relevance judge, and the experiment runner that regenerates Tables 1-2 for
// the two datasets (Figures 3-4 plot their columns: precision versus the
// number of returned images, one curve per scheme).
package eval

import (
	"fmt"

	"lrfcsvm/internal/core"
)

// Cutoffs are the top-N cutoffs of the paper's tables and figures: 20..100
// returned images in steps of 10.
var Cutoffs = []int{20, 30, 40, 50, 60, 70, 80, 90, 100}

// PrecisionAt computes the paper's Average Precision metric for one query at
// one cutoff: the number of relevant images among the top-k ranked images
// divided by k, read off ranked, a ranking best first (a Scheme.RankTop
// result). A ranking shorter than k — the whole collection is fewer images —
// counts over what it has. relevant[i] reports whether image i shares the
// query's semantic category.
func PrecisionAt(ranked []core.Ranked, relevant []bool, k int) float64 {
	k = min(k, len(ranked))
	if k <= 0 {
		return 0
	}
	count := 0
	for _, r := range ranked[:k] {
		if relevant[r.Index] {
			count++
		}
	}
	return float64(count) / float64(k)
}

// MeanAveragePrecision is the paper's MAP row: the mean of the precision
// values across the cutoffs of the table.
func MeanAveragePrecision(curve []float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	var sum float64
	for _, p := range curve {
		sum += p
	}
	return sum / float64(len(curve))
}

// Row is one scheme's row of a results table: precision per cutoff plus MAP.
type Row struct {
	Scheme    string
	Precision []float64 // aligned with the Cutoffs of the Table
	MAP       float64
}

// Improvement returns the relative improvement of this row over a baseline
// row at cutoff index i, e.g. 0.229 for "+22.9%".
func (r Row) Improvement(baseline Row, i int) float64 {
	if i < 0 || i >= len(r.Precision) || i >= len(baseline.Precision) || baseline.Precision[i] == 0 {
		return 0
	}
	return r.Precision[i]/baseline.Precision[i] - 1
}

// MAPImprovement returns the relative MAP improvement over a baseline row.
func (r Row) MAPImprovement(baseline Row) float64 {
	if baseline.MAP == 0 {
		return 0
	}
	return r.MAP/baseline.MAP - 1
}

// Table is a full results table in the format of the paper's Table 1/2:
// one row per scheme over a common list of cutoffs.
type Table struct {
	Name    string
	Dataset string
	Queries int
	Cutoffs []int
	Rows    []Row
}

// Row returns the row of the named scheme and whether it exists.
func (t *Table) Row(scheme string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Scheme == scheme {
			return r, true
		}
	}
	return Row{}, false
}

// Format renders the table as text in the layout of the paper's tables:
// one line per cutoff, one column per scheme, with relative improvements
// over the baseline scheme (the second column, RF-SVM in the paper) attached
// to the later columns.
func (t *Table) Format() string {
	var b []byte
	appendf := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	appendf("%s — %s (%d queries)\n", t.Name, t.Dataset, t.Queries)
	appendf("%-6s", "#TOP")
	for _, r := range t.Rows {
		appendf("  %-22s", r.Scheme)
	}
	appendf("\n")
	baselineIdx := 1
	if len(t.Rows) < 2 {
		baselineIdx = 0
	}
	for ci, k := range t.Cutoffs {
		appendf("%-6d", k)
		for ri, r := range t.Rows {
			if ri <= baselineIdx {
				appendf("  %-22s", fmt.Sprintf("%.3f", r.Precision[ci]))
			} else {
				appendf("  %-22s", fmt.Sprintf("%.3f (%+.1f%%)", r.Precision[ci], 100*r.Improvement(t.Rows[baselineIdx], ci)))
			}
		}
		appendf("\n")
	}
	appendf("%-6s", "MAP")
	for ri, r := range t.Rows {
		if ri <= baselineIdx {
			appendf("  %-22s", fmt.Sprintf("%.3f", r.MAP))
		} else {
			appendf("  %-22s", fmt.Sprintf("%.3f (%+.1f%%)", r.MAP, 100*r.MAPImprovement(t.Rows[baselineIdx])))
		}
	}
	appendf("\n")
	return string(b)
}
