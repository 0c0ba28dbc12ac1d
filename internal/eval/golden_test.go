package eval

import (
	"strconv"
	"strings"
	"testing"

	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/feedbacklog"
)

// goldenConfig is the fixed-seed profile of the golden regression test. A row
// is summed in query order whatever Workers is, so it is left at its default.
func goldenConfig() Config {
	return Config{
		Dataset: dataset.Spec{Categories: 6, ImagesPerCategory: 20, Width: 32, Height: 32, Seed: 42, ExtraNoise: 10},
		Log: feedbacklog.SimulatorConfig{
			Sessions: 40, ReturnedPerSession: 12, NoiseRate: 0.05, ExplorationFraction: 0.35, Seed: 43,
		},
		Queries:         12,
		LabeledPerQuery: 15,
		Seed:            44,
	}
}

// goldenMAP pins the MAP of every scheme on the golden profile, and of the
// logkernel sweep's two log=rbf variants (the only schemes whose log half
// scores through the RBF kernel rather than the linear weight vector),
// recorded with %.17g formatting (bit-exact for float64). The hot ranking
// path is heavily optimized (batched kernels, shared Gram caches, fused
// exponentials) under the contract that reported metrics stay bit-identical;
// this test catches any future refactor that silently drifts them. If a
// change intentionally alters the arithmetic, re-record these values and
// justify the drift in EXPERIMENTS.md.
var goldenMAP = map[string]string{
	"Euclidean": "0.29422361845972955",
	"RF-SVM":    "0.38934009406231629",
	"LRF-2SVMs": "0.39732730746619632",
	"LRF-CSVM":  "0.38258267195767198",

	"LRF-2SVMs log=rbf": "0.40635765726043493",
	"LRF-CSVM log=rbf":  "0.36257642563198117",
}

func TestGoldenMAPRegression(t *testing.T) {
	exp, err := Prepare(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	schemes := exp.DefaultSchemes()
	for _, a := range Ablations {
		if a.Name != "logkernel" {
			continue
		}
		for _, s := range a.Schemes(exp) {
			if strings.HasSuffix(s.Name(), "log=rbf") {
				schemes = append(schemes, s)
			}
		}
	}
	table, err := exp.Run("golden", schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(goldenMAP) {
		t.Fatalf("%d schemes, want %d", len(table.Rows), len(goldenMAP))
	}
	for _, row := range table.Rows {
		got := strconv.FormatFloat(row.MAP, 'g', 17, 64)
		want, ok := goldenMAP[row.Scheme]
		if !ok {
			t.Errorf("unexpected scheme %q", row.Scheme)
			continue
		}
		if got != want {
			t.Errorf("%s MAP = %s, want %s (bit-exact)", row.Scheme, got, want)
		}
	}
}
