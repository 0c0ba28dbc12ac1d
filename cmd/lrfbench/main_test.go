package main

import (
	"math"
	"strings"
	"testing"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/eval"
)

// TestBuildConfigValidatesFlags pins what is diagnosed before any dataset is
// built: buildConfig only assembles an eval.Config, so a rejected command
// line costs nothing, where a typo in -ablation used to surface after
// eval.Prepare had generated and feature-extracted the whole collection.
func TestBuildConfigValidatesFlags(t *testing.T) {
	type args struct {
		dataset    int
		profile    string
		queries    int
		ablation   string
		positional []string
	}
	accept := []args{
		{20, "full", 0, "", nil},
		{50, "ci", 7, "", nil},
	}
	if n := len(eval.AblationNames()); n != 7 {
		t.Fatalf("ablation list has %d names, want 7", n)
	}
	for _, name := range eval.AblationNames() {
		accept = append(accept, args{20, "ci", 0, name, nil})
	}
	for _, a := range accept {
		cfg, name, sweep, err := buildConfig(a.positional, a.dataset, a.profile, a.queries, 42, a.ablation)
		if err != nil {
			t.Errorf("%+v rejected: %v", a, err)
			continue
		}
		if name == "" || cfg.Dataset.Categories == 0 {
			t.Errorf("%+v: caption %q, %d categories", a, name, cfg.Dataset.Categories)
		}
		if a.queries > 0 && cfg.Queries != a.queries {
			t.Errorf("%+v: cfg.Queries = %d", a, cfg.Queries)
		}
		if (sweep != nil) != (a.ablation != "") || (sweep != nil && sweep.Name != a.ablation) {
			t.Errorf("%+v: resolved sweep %+v", a, sweep)
		}
	}

	reject := []struct {
		args
		want string // must appear in the diagnostic
	}{
		{args{30, "ci", 0, "", nil}, "unknown dataset 30"},
		{args{20, "fast", 0, "", nil}, `unknown profile "fast"`},
		{args{20, "ci", -1, "", nil}, "negative -queries -1"},
		{args{20, "ci", 0, "rhoo", nil}, strings.Join(eval.AblationNames(), ", ")},
		{args{20, "ci", 0, "Rho", nil}, `unknown ablation "Rho"`},
		{args{20, "full", 0, "", []string{"50", "-profile", "ci"}}, `unexpected argument "50"`},
	}
	for _, r := range reject {
		_, _, _, err := buildConfig(r.positional, r.dataset, r.profile, r.queries, 42, r.ablation)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%+v: error %v, want one naming %q", r.args, err, r.want)
		}
	}
}

// TestAblationsContainMainTableRow holds every sweep to "the default plus the
// one field it varies": on the CI profile the named variant's precision row
// is the main table's LRF-CSVM row, bit for bit, so a sweep can be read
// against the tables and never runs around a configuration nothing else does.
// A sweep over the log holds the profile's own configuration among its
// variants, and the scheme it runs there is the main table's.
func TestAblationsContainMainTableRow(t *testing.T) {
	defaultVariant := map[string]string{
		"selection":   "LRF-CSVM selection=log-assisted",
		"rho":         "LRF-CSVM rho=1",
		"delta":       "LRF-CSVM delta=1",
		"unlabeled":   "LRF-CSVM N'=16",
		"logkernel":   "LRF-CSVM log=linear",
		"logsessions": "LRF-CSVM",
		"lognoise":    "LRF-CSVM",
	}
	cfg := eval.CI20(42)
	exp, err := eval.Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := exp.SampleQueries()
	want, err := exp.RunScheme(core.LRFCSVM{}, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range eval.Ablations {
		found := false
		for _, v := range sweep.Variants(cfg) {
			found = found || v.Config == cfg
		}
		if !found {
			t.Errorf("-ablation %s has no variant on the profile's own configuration", sweep.Name)
		}
		found = false
		for _, scheme := range sweep.Schemes(exp) {
			if scheme.Name() != defaultVariant[sweep.Name] {
				continue
			}
			found = true
			got, err := exp.RunScheme(scheme, queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Precision {
				if math.Float64bits(got.Precision[i]) != math.Float64bits(want.Precision[i]) {
					t.Errorf("-ablation %s: %s has P@%d %v, the main table's LRF-CSVM %v", sweep.Name, scheme.Name(), eval.Cutoffs[i], got.Precision[i], want.Precision[i])
				}
			}
			if math.Float64bits(got.MAP) != math.Float64bits(want.MAP) {
				t.Errorf("-ablation %s: %s has MAP %v, the main table's LRF-CSVM %v", sweep.Name, scheme.Name(), got.MAP, want.MAP)
			}
		}
		if !found {
			t.Errorf("-ablation %s has no variant named %q", sweep.Name, defaultVariant[sweep.Name])
		}
	}
}
