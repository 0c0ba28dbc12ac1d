package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/feedbacklog"
)

// tinyConfig is a very small experiment used by the unit tests; the CI20/50
// profiles are used by the integration test and the benchmarks.
func tinyConfig(seed uint64) Config {
	return Config{
		Dataset: dataset.Spec{Categories: 6, ImagesPerCategory: 20, Width: 32, Height: 32, Seed: seed, ExtraNoise: 10},
		Log: feedbacklog.SimulatorConfig{
			Sessions: 40, ReturnedPerSession: 12, NoiseRate: 0.05, ExplorationFraction: 0.35, Seed: seed + 1,
		},
		Queries:         10,
		LabeledPerQuery: 15,
		Seed:            seed + 2,
	}
}

func TestPaperConfigs(t *testing.T) {
	p20 := Paper20(1)
	if p20.Dataset.Categories != 20 || p20.Dataset.ImagesPerCategory != 100 || p20.Queries != 200 || p20.LabeledPerQuery != 20 {
		t.Errorf("Paper20 = %+v", p20)
	}
	p50 := Paper50(1)
	if p50.Dataset.Categories != 50 {
		t.Errorf("Paper50 categories = %d", p50.Dataset.Categories)
	}
	if p20.Log.Sessions != 150 || p20.Log.ReturnedPerSession != 20 {
		t.Errorf("Paper20 log config = %+v", p20.Log)
	}
	ci := CI20(1)
	if ci.Dataset.Categories >= 20 || ci.Queries >= 200 {
		t.Errorf("CI20 not scaled down: %+v", ci)
	}
	if err := ci.Dataset.Validate(); err != nil {
		t.Errorf("CI20 dataset invalid: %v", err)
	}
	if CI50(1).Dataset.Categories <= CI20(1).Dataset.Categories {
		t.Error("CI50 should have more categories than CI20")
	}
}

func TestPrepare(t *testing.T) {
	exp, err := Prepare(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 6 * 20
	if len(exp.Visual) != n || len(exp.Labels) != n {
		t.Fatalf("prepared sizes %d/%d", len(exp.Visual), len(exp.Labels))
	}
	if exp.LogStats.Sessions != 40 || exp.logIndex.Dim() != 40 {
		t.Errorf("log sessions = %d, indexed %d", exp.LogStats.Sessions, exp.logIndex.Dim())
	}
	// Visual descriptors must be normalized (roughly zero-mean).
	var mean float64
	for _, v := range exp.Visual {
		mean += v[0]
	}
	mean /= float64(n)
	if mean > 0.5 || mean < -0.5 {
		t.Errorf("descriptors do not look normalized: mean of first component = %v", mean)
	}
}

func TestPrepareRejectsBadConfig(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.Dataset.Categories = 0
	if _, err := Prepare(cfg); err == nil {
		t.Error("expected error for invalid dataset spec")
	}
	cfg = tinyConfig(3)
	cfg.Log.Sessions = -1
	if _, err := Prepare(cfg); err == nil {
		t.Error("expected error for invalid log config")
	}
}

func TestQueryContextProtocol(t *testing.T) {
	exp, err := Prepare(tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := exp.QueryContext(7)
	if ctx.Query != 7 {
		t.Errorf("query = %d", ctx.Query)
	}
	if len(ctx.Labeled) != 15 {
		t.Errorf("labeled count = %d, want 15", len(ctx.Labeled))
	}
	// The query itself is its own nearest neighbor, so it must be labeled +1.
	foundQuery := false
	for _, ex := range ctx.Labeled {
		if ex.Index == 7 {
			foundQuery = true
			if ex.Label != 1 {
				t.Error("query image labeled irrelevant")
			}
		}
		// Labels must agree with the category oracle.
		want := -1.0
		if exp.Labels[ex.Index] == exp.Labels[7] {
			want = 1.0
		}
		if ex.Label != want {
			t.Errorf("label of image %d = %v, want %v", ex.Index, ex.Label, want)
		}
	}
	if !foundQuery {
		t.Error("query image not among the labeled examples")
	}
}

func TestSampleQueriesDeterministicAndDistinct(t *testing.T) {
	exp, err := Prepare(tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	a := exp.SampleQueries()
	b := exp.SampleQueries()
	if len(a) != exp.Config.Queries {
		t.Fatalf("sampled %d queries", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("query sampling not deterministic")
		}
		if a[i] < 0 || a[i] >= len(exp.Visual) {
			t.Fatalf("query %d out of range", a[i])
		}
		if seen[a[i]] {
			t.Error("duplicate query despite collection being large enough")
		}
		seen[a[i]] = true
	}
}

func TestRelevantOracle(t *testing.T) {
	exp, err := Prepare(tinyConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	rel := exp.Relevant(0)
	count := 0
	for i, r := range rel {
		if r != (exp.Labels[i] == exp.Labels[0]) {
			t.Fatalf("oracle wrong at %d", i)
		}
		if r {
			count++
		}
	}
	if count != 20 {
		t.Errorf("query 0 has %d relevant images, want 20 (its whole category)", count)
	}
}

func TestRunSchemeAndTable(t *testing.T) {
	exp, err := Prepare(tinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	queries := exp.SampleQueries()
	row, err := exp.RunScheme(core.Euclidean{}, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Precision) != len(Cutoffs) {
		t.Fatalf("precision curve length %d", len(row.Precision))
	}
	for i, p := range row.Precision {
		if p < 0 || p > 1 {
			t.Errorf("precision[%d] = %v", i, p)
		}
	}
	if row.MAP <= 0 {
		t.Errorf("MAP = %v", row.MAP)
	}

	table, err := exp.Run("tiny", []core.Scheme{core.Euclidean{}, core.RFSVM{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 || table.Queries != len(queries) {
		t.Fatalf("table shape %+v", table)
	}
	if _, ok := table.Row("Euclidean"); !ok {
		t.Error("Euclidean row missing")
	}
}

// TestRunSchemeRowIndependentOfWorkers: a row is summed in query order, not
// in the order the workers finish, so four workers print the table one does.
func TestRunSchemeRowIndependentOfWorkers(t *testing.T) {
	exp, err := Prepare(CI20(42))
	if err != nil {
		t.Fatal(err)
	}
	queries := exp.SampleQueries()
	var rows [2]Row
	for i, workers := range []int{1, 4} {
		exp.Config.Workers = workers
		if rows[i], err = exp.RunScheme(core.RFSVM{}, queries); err != nil {
			t.Fatal(err)
		}
	}
	for ci := range Cutoffs {
		if a, b := rows[0].Precision[ci], rows[1].Precision[ci]; math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("P@%d = %.17g on one worker, %.17g on four", Cutoffs[ci], a, b)
		}
	}
}

// failsOn ranks like Euclidean except on the listed queries, where it fails.
type failsOn struct {
	core.Euclidean
	queries map[int]bool
}

func (f failsOn) RankTopAppend(ctx *core.QueryContext, k int, dst []core.Ranked) ([]core.Ranked, error) {
	if f.queries[ctx.Query] {
		return nil, fmt.Errorf("no ranking for query %d", ctx.Query)
	}
	return f.Euclidean.RankTopAppend(ctx, k, dst)
}

// TestRunFailsWhenAnyQueryFails: a table row is the mean over every query in
// its header, so two failed queries out of ten fail the run, naming the
// scheme, the count and the first error, instead of averaging the other eight.
func TestRunFailsWhenAnyQueryFails(t *testing.T) {
	exp, err := Prepare(tinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	queries := exp.SampleQueries()
	lo, hi := min(queries[3], queries[7]), max(queries[3], queries[7])
	scheme := failsOn{queries: map[int]bool{lo: true, hi: true}}
	table, err := exp.Run("tiny", []core.Scheme{core.Euclidean{}, scheme})
	if err == nil {
		t.Fatalf("Run averaged a table over the surviving queries: %+v", table)
	}
	for _, want := range []string{
		"Euclidean", fmt.Sprintf("2 of %d queries", len(queries)), fmt.Sprintf("no ranking for query %d", lo),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestIntegrationSchemeOrdering is the repository's core integration test:
// on a scaled-down but otherwise faithful version of the paper's protocol,
// the log-based relevance-feedback schemes must outperform the regular
// RF-SVM scheme, which in turn must not fall below the Euclidean baseline —
// the central qualitative claim of the paper.
func TestIntegrationSchemeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	cfg := CI20(42)
	exp, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := exp.Run("CI 20-Category", nil)
	if err != nil {
		t.Fatal(err)
	}
	eucl, _ := table.Row("Euclidean")
	rf, _ := table.Row("RF-SVM")
	two, _ := table.Row("LRF-2SVMs")
	csvm, _ := table.Row("LRF-CSVM")
	t.Logf("\n%s", table.Format())

	if rf.MAP < eucl.MAP-0.05 {
		t.Errorf("RF-SVM MAP %.3f below Euclidean %.3f", rf.MAP, eucl.MAP)
	}
	if two.MAP <= rf.MAP {
		t.Errorf("LRF-2SVMs MAP %.3f not above RF-SVM %.3f: the log adds nothing", two.MAP, rf.MAP)
	}
	if csvm.MAP <= rf.MAP {
		t.Errorf("LRF-CSVM MAP %.3f not above RF-SVM %.3f", csvm.MAP, rf.MAP)
	}
	// The two log-based schemes must be in the same league. The paper ranks
	// LRF-CSVM first; on the synthetic substrate LRF-2SVMs ranks first at the
	// paper's scale (EXPERIMENTS.md "Paper tables": MAP 0.73 against
	// 0.71 and 0.57 against 0.50), and which ordering to assert is ROADMAP
	// item 1's verdict, not this bound's.
	if csvm.MAP < two.MAP-0.08 {
		t.Errorf("LRF-CSVM MAP %.3f far below LRF-2SVMs %.3f", csvm.MAP, two.MAP)
	}
}
