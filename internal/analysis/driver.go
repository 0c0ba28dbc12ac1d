package analysis

import "fmt"

// RunConfig configures one cbirlint run.
type RunConfig struct {
	// Patterns are go package patterns; empty means "./...".
	Patterns []string
	// PkgPath, when non-empty, loads the single matched package under
	// this import path instead of its real one, so scratch packages can
	// opt into path-scoped analyzers (used by fixtures and the CI
	// self-test seeds).
	PkgPath string
	// Analyzers to run; empty means All().
	Analyzers []*Analyzer
}

// Run loads the configured packages, applies every configured analyzer in
// scope, filters cbirlint:ignore suppressions, and returns the surviving
// diagnostics sorted by position.
func Run(cfg RunConfig) ([]Diagnostic, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	loader, err := NewLoader(".", cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*LoadedPackage
	if cfg.PkgPath != "" {
		pkg, err := loader.LoadAs(cfg.PkgPath)
		if err != nil {
			return nil, err
		}
		pkgs = []*LoadedPackage{pkg}
	} else {
		if pkgs, err = loader.Load(); err != nil {
			return nil, err
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgDiags, err := Check(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, pkgDiags...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// Check runs the given analyzers over one loaded package and applies the
// package's cbirlint:ignore directives.
func Check(pkg *LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return nil, fmt.Errorf("analysis: malformed analyzer %+v", a)
		}
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		found, err := RunOn(a, pkg)
		if err != nil {
			return nil, err
		}
		diags = append(diags, found...)
	}
	return applySuppressions(pkg, diags, analyzers), nil
}
