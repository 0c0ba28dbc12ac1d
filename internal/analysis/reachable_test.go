package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"lrfcsvm/internal/analysis"
)

const (
	modulePath     = "lrfcsvm"
	internalPrefix = modulePath + "/internal/"
)

// testOnly is the allowlist of TestInternalDeclarationsReachable: the
// declarations under internal/ that no program reaches and that stay anyway,
// each with the tests that need it and why it is not re-created in a
// _test.go file. What an entry reaches stays with it (ValidateExposition's
// parser), and an entry ending in "." covers a whole package. An entry that
// a program reaches, or that names nothing, fails the test, so the list
// cannot outlive its reasons.
var testOnly = map[string]string{
	"internal/faultinject.":           "test harness by design: the storage and cbirserver fault tests wrap a journal's file in it; no program may",
	"internal/analysis/analysistest.": "test harness by design: suite_test.go and cmd/cbirlint's self-test run analyzers over fixtures with it",

	"internal/svm.Model.Predict":  "sign(f(x)) over Decision: the svm training tests and core's coupled_test.go assert classifications with it",
	"internal/kernel.DensePoints": "fixture of ~25 kernel and svm tests: wraps vectors as the []Point a Problem or a cache takes",
	"internal/kernel.CountPairs":  "core's BenchmarkTopKPass counts the kernel pairs LRF-CSVM's step 3 evaluates through it; it swaps the running member, which a _test.go file of kernel cannot do for core's tests",

	"internal/sparse.FromDense":      "fixture of the sparse, kernel and svm tests: builds a log vector from a literal",
	"internal/sparse.Vector.At":      "how the feedbacklog, retrieval and sparse tests read one judgment out of a relevance column",
	"internal/sparse.Vector.Equal":   "how the storage and feedbacklog tests compare relevance columns after a round trip or an incremental extend",
	"internal/sparse.Vector.ToDense": "Equal is built on it, and test failure messages print columns through it",
	"internal/linalg.Vector.Equal":   "tolerance comparison of the linalg, kernel, features, storage and core tests",

	"internal/linalg.Matrix.RowSquaredDistancesNormInto": "the distance expansion as first written, over MulVecInto: kernel's TestSquaredDistancesMatchLinalg holds DenseSet.SquaredDistancesInto (every backend's row dot) to it bit for bit, and linalg's own test holds it to the direct subtraction",

	"internal/imaging.Image.Fill":         "fixture of the features and imaging tests: a flat image, whose descriptor is known in closed form",
	"internal/eval.RecallAtK":             "the recall measure TestANNRecallMatrix and TestQuantizedLaneRecallAndMAP gate the approximate lanes with",
	"internal/metrics.ValidateExposition": "the scraper-side parser that the metrics golden tests and the server's /metrics tests hold every exposition to",
}

// declGraph is the reference graph over the module's top-level declarations
// (functions, methods, types, constants, variables). Each package is
// type-checked in a type universe of its own, so an object is named by
// package path + receiver + name rather than by identity.
type declGraph struct {
	pos   map[string]token.Position
	edges map[string][]string
	roots []string
}

// objectKey names a package-level object or method of the module, or
// returns "" for everything else (locals, fields, interface methods of
// other modules, the standard library).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // method of an interface literal
			}
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// add records one declaration and every module object its syntax mentions.
func (g *declGraph) add(pkg *analysis.LoadedPackage, name *ast.Ident, syntax ast.Node) {
	key := objectKey(pkg.Info.Defs[name])
	if key == "" {
		return // var _ I = T{}: a compile-time assertion reaches nothing
	}
	g.pos[key] = pkg.Fset.Position(name.Pos())
	if name.Name == "main" && pkg.Pkg.Name() == "main" || name.Name == "init" {
		g.roots = append(g.roots, key)
	}
	ast.Inspect(syntax, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if used := objectKey(pkg.Info.Uses[id]); used != "" && used != key {
				g.edges[key] = append(g.edges[key], used)
			}
		}
		return true
	})
}

// addInterfaceRoots roots every method through which a named type of the
// module satisfies an interface this package can see: its own, those of the
// packages it imports, and error. Such a method is called without being
// named (fmt calls String, sort calls Less, the generic scan driver calls
// scorer), so no selector refers to it.
func (g *declGraph) addInterfaceRoots(pkg *analysis.LoadedPackage) {
	var ifaces []*types.Interface
	var named []*types.Named
	collect := func(p *types.Package, module bool) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if n, ok := tn.Type().(*types.Named); ok && module && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	collect(pkg.Pkg, true)
	for _, imp := range pkg.Pkg.Imports() {
		collect(imp, strings.HasPrefix(imp.Path(), modulePath+"/"))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range pkg.Info.Types { // interface literals: constraints, parameters, fields
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, n := range named {
		for _, it := range ifaces {
			var impl types.Type = n
			if !types.Implements(impl, it) {
				impl = types.NewPointer(n)
				if !types.Implements(impl, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, false, m.Pkg(), m.Name())
				if key := objectKey(obj); key != "" {
					g.roots = append(g.roots, key)
				}
			}
		}
	}
}

func buildDeclGraph(pkgs []*analysis.LoadedPackage) *declGraph {
	g := &declGraph{pos: make(map[string]token.Position), edges: make(map[string][]string)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					g.add(pkg, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							g.add(pkg, s.Name, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								g.add(pkg, name, s)
							}
						}
					}
				}
			}
		}
		g.addInterfaceRoots(pkg)
	}
	return g
}

// reach returns every key a chain of references leads to from the roots.
func (g *declGraph) reach(roots []string) map[string]bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[key] {
			continue
		}
		seen[key] = true
		stack = append(stack, g.edges[key]...)
	}
	return seen
}

// TestInternalDeclarationsReachable enforces the rule for what internal/
// declares: a function, method, type, constant or variable is reachable from
// a program of the module (a main or init function of cmd/, examples/ or
// bench/, through non-test code only), or it is in testOnly with the tests
// that need it, or a testOnly declaration reaches it. Reachable means a
// chain of references from a root; a method also counts when its type
// satisfies an interface through it. Declarations only their own tests call
// are deleted with those tests rather than listed (EXPERIMENTS.md "PR 19"
// has the first inventory). The fields of the option structs are held to the
// same rule by checkOptionFields (fields_test.go).
func TestInternalDeclarationsReachable(t *testing.T) {
	loader, err := analysis.NewLoader("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		t.Fatal(err)
	}
	g := buildDeclGraph(pkgs)

	// entry maps a declaration to the testOnly entry that covers it.
	entry := func(key string) (string, bool) {
		name := strings.TrimPrefix(key, modulePath+"/")
		if _, ok := testOnly[name]; ok {
			return name, true
		}
		pkg := name[:strings.IndexByte(name, '.')+1] // import paths of this module have no dots
		_, ok := testOnly[pkg]
		return pkg, ok
	}
	fromPrograms := g.reach(g.roots)
	roots := slices.Clone(g.roots)
	used := make(map[string]bool)
	for key := range g.pos {
		if e, ok := entry(key); ok && !fromPrograms[key] {
			used[e] = true
			roots = append(roots, key)
		}
	}
	for e, reason := range testOnly {
		if !used[e] {
			t.Errorf("testOnly[%q] is stale: it names nothing, or a program reaches it now", e)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnly[%q] has no reason", e)
		}
	}

	reached := g.reach(roots)
	var dead []string
	for key := range g.pos {
		if strings.HasPrefix(key, internalPrefix) && !reached[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: %s is not reachable from any program of the module; delete it (with the tests that only test it) or add it to testOnly with the tests that need it",
			g.pos[key], strings.TrimPrefix(key, modulePath+"/"))
	}
	t.Logf("%d declarations checked, %d allowlist entries", len(g.pos), len(testOnly))

	checkOptionFields(t, pkgs)
}
