// Package analysis implements cbirlint, the repo's invariant lint suite:
// a set of static analyzers that mechanically enforce the correctness
// contracts earlier PRs established in prose — bit-identical determinism,
// context propagation on the serving path, atomic publish discipline, the
// single-source-of-truth exponential, and the journal-order == log-order
// durability rule.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with `// want` comments) but
// is built only on the standard library: the repo vendors no dependencies,
// so packages are loaded via `go list -export` and type-checked with the
// compiler's export data (see load.go). Each analyzer is a pure function
// of one type-checked package.
//
// See doc.go for the analyzer-by-analyzer contract table, and
// cmd/cbirlint for the command-line driver CI runs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check over a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -run filters and
	// cbirlint:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string

	// Contract names the invariant the analyzer encodes and the PR that
	// established it; cbirlint -list prints it.
	Contract string

	// Applies reports whether the analyzer checks the package with the
	// given import path. Nil means every package. Scoping is by import
	// path (not package name) so test fixtures can opt in by loading
	// under a scoped path.
	Applies func(pkgPath string) bool

	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string // import path the analyzer sees (fixtures may override)
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunOn applies one analyzer to a loaded package and returns its raw
// (unsuppressed) diagnostics. Callers wanting cbirlint:ignore handling
// should use Check or the driver's Run.
func RunOn(a *Analyzer, pkg *LoadedPackage) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		PkgPath:   pkg.Path,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.diags, nil
}

// hasPathSuffix reports whether path ends in suffix at a path-segment
// boundary: "lrfcsvm/internal/kernel" matches suffix "internal/kernel" but
// "internal/kernelx" does not.
func hasPathSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// ScopeSuffix builds an Applies predicate matching any of the given
// import-path suffixes.
func ScopeSuffix(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if hasPathSuffix(path, s) {
				return true
			}
		}
		return false
	}
}

// ExcludeSuffix builds an Applies predicate matching every package except
// those with one of the given import-path suffixes.
func ExcludeSuffix(suffixes ...string) func(string) bool {
	in := ScopeSuffix(suffixes...)
	return func(path string) bool { return !in(path) }
}

// isNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
