package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// LoadedPackage is one parsed and type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string // import path analyzers see (may be an override)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listPackage mirrors the `go list -json` fields the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Loader loads module packages for analysis. It shells out to the go tool
// once to resolve patterns and produce compiler export data for every
// dependency, then parses and type-checks each target package from source
// with the gc importer reading that export data — the same package view
// the compiler has (build tags applied, test files excluded), with no
// dependency beyond the standard library and an installed go toolchain.
type Loader struct {
	Dir  string // directory go list runs in (anywhere inside the module)
	fset *token.FileSet

	exports map[string]string // import path -> export data file
	targets []listPackage     // packages matched by the patterns, sorted
}

// NewLoader resolves the given go package patterns (e.g. "./...") relative
// to dir and prepares export data for their dependency closure.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := &Loader{Dir: dir, fset: token.NewFileSet(), exports: make(map[string]string)}

	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Error", "--"}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	all := make(map[string]listPackage)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		all[p.ImportPath] = p
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}

	// A second, dependency-free listing distinguishes the packages the
	// patterns named from the closure -deps pulled in.
	out, err = runGo(dir, append([]string{"list", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	for _, path := range strings.Fields(string(out)) {
		p, ok := all[path]
		if !ok {
			return nil, fmt.Errorf("analysis: go list matched %s but -deps run did not describe it", path)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		l.targets = append(l.targets, p)
	}
	sort.Slice(l.targets, func(i, j int) bool { return l.targets[i].ImportPath < l.targets[j].ImportPath })
	return l, nil
}

// Load parses and type-checks every target package.
func (l *Loader) Load() ([]*LoadedPackage, error) {
	out := make([]*LoadedPackage, 0, len(l.targets))
	for _, t := range l.targets {
		p, err := l.check(t, t.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadAs loads the single target package under an overriding import path,
// so fixtures and seed packages can opt into path-scoped analyzers.
func (l *Loader) LoadAs(pkgPath string) (*LoadedPackage, error) {
	if len(l.targets) != 1 {
		return nil, fmt.Errorf("analysis: import-path override needs exactly one package, patterns matched %d", len(l.targets))
	}
	return l.check(l.targets[0], pkgPath)
}

func (l *Loader) check(lp listPackage, asPath string) (*LoadedPackage, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: &exportImporter{inner: importer.ForCompiler(l.fset, "gc", l.lookup)},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	pkg, err := conf.Check(asPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", lp.ImportPath, strings.Join(typeErrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
	}
	return &LoadedPackage{Path: asPath, Dir: lp.Dir, Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// exportImporter wraps the gc importer to special-case "unsafe", which has
// no export data file.
type exportImporter struct {
	inner types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.inner.Import(path)
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
