package main

import (
	"strings"
	"testing"
)

// TestBuildConfigValidatesFlags pins what is diagnosed before any dataset is
// built: buildConfig only assembles an eval.Config, so a rejected command
// line costs nothing, where a typo in -ablation used to surface after
// eval.Prepare had generated and feature-extracted the whole collection.
func TestBuildConfigValidatesFlags(t *testing.T) {
	type args struct {
		dataset  int
		profile  string
		queries  int
		ablation string
	}
	accept := []args{
		{20, "full", 0, ""},
		{50, "ci", 7, ""},
	}
	if n := len(ablationNames()); n != 5 {
		t.Fatalf("ablation list has %d names, want 5", n)
	}
	for _, name := range ablationNames() {
		accept = append(accept, args{20, "ci", 0, name})
	}
	for _, a := range accept {
		cfg, name, figure, sweep, err := buildConfig(a.dataset, a.profile, a.queries, 42, a.ablation)
		if err != nil {
			t.Errorf("%+v rejected: %v", a, err)
			continue
		}
		if name == "" || figure == "" || cfg.Dataset.Categories == 0 {
			t.Errorf("%+v: captions %q/%q, %d categories", a, name, figure, cfg.Dataset.Categories)
		}
		if a.queries > 0 && cfg.Queries != a.queries {
			t.Errorf("%+v: cfg.Queries = %d", a, cfg.Queries)
		}
		if (sweep != nil) != (a.ablation != "") || (sweep != nil && sweep.name != a.ablation) {
			t.Errorf("%+v: resolved sweep %+v", a, sweep)
		}
	}

	reject := []struct {
		args
		want string // must appear in the diagnostic
	}{
		{args{30, "ci", 0, ""}, "unknown dataset 30"},
		{args{20, "fast", 0, ""}, `unknown profile "fast"`},
		{args{20, "ci", -1, ""}, "negative -queries -1"},
		{args{20, "ci", 0, "rhoo"}, strings.Join(ablationNames(), ", ")},
		{args{20, "ci", 0, "Rho"}, `unknown ablation "Rho"`},
	}
	for _, r := range reject {
		_, _, _, _, err := buildConfig(r.dataset, r.profile, r.queries, 42, r.ablation)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%+v: error %v, want one naming %q", r.args, err, r.want)
		}
	}
}
