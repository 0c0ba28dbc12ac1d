package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"lrfcsvm/internal/analysis"
)

// keptFields is the allowlist of checkOptionFields: the exported option
// fields no program of the module sets and that stay anyway, each with its
// reason. An entry that a program sets, or that names no field, fails the
// test.
var keptFields = map[string]string{
	"internal/svm.Config.MaxIterations":        "safety code: the bound that stops a solver that does not converge; the KKT suite lowers it to reach the not-converged return",
	"internal/storage.JournalOptions.WrapFile": "the fault-injection seam: internal/faultinject interposes failing writes and fsyncs through it, which no program may",
	"internal/kernel.CentroidConfig.Clusters":  "the serving lane that set it is gone and bench/ builds its index with CentroidConfig{}; it waits with the rest of kernel/ivf.go, whose tests and TestANNRecallMatrix's narrow row set it, until bench/ stops building that index",
	"internal/eval.Config.LabeledPerQuery":     "20 in both paper profiles, but the golden MAPs of internal/eval were recorded judging 15 images per query: deleting it re-pins them",
}

// isOptionType reports whether a named type of the module is one that
// programs pass as options.
func isOptionType(path, name string) bool {
	if !strings.HasPrefix(path, internalPrefix) || !token.IsExported(name) {
		return false
	}
	for _, suffix := range []string{"Options", "Config", "Params"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return path == internalPrefix+"dataset" && name == "Spec"
}

// optionStruct names t (or the type t points to) when it is an option
// struct, as package path + "." + type name.
func optionStruct(t types.Type) (string, *types.Struct) {
	if t == nil {
		return "", nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !isOptionType(named.Obj().Pkg().Path(), named.Obj().Name()) {
		return "", nil
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), st
}

// selectedField names the option field a selector expression denotes
// (owner struct + "." + field), or returns "".
func selectedField(pkg *analysis.LoadedPackage, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	// The struct that declares the field: follow embedded fields.
	recv := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		recv = recv.Underlying().(*types.Struct).Field(i).Type()
	}
	owner, _ := optionStruct(recv)
	if owner == "" {
		return ""
	}
	return owner + "." + sel.Sel.Name
}

// checkOptionFields enforces the rule for what the option structs of
// internal/ declare (…Options, …Config, …Params, dataset.Spec): an exported
// field is set by non-test code — a composite-literal element, an
// assignment, ++ or -- — or it is in keptFields with its reason. A write by
// the package that declares the struct counts only when it carries a value
// in: not when the value is a constant, and not when it fills the field's
// own zero value (an assignment under an if whose condition reads the
// field), which is how a default is written, not how a program sets an
// option. A field nothing sets is a constant: delete it and name the
// constant (EXPERIMENTS.md "PR 20" has the first inventory).
func checkOptionFields(t *testing.T, pkgs []*analysis.LoadedPackage) {
	pos := make(map[string]token.Position)
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			owner, st := optionStruct(tn.Type())
			if owner == "" {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					pos[owner+"."+f.Name()] = pkg.Fset.Position(f.Pos())
				}
			}
		}
	}

	set := make(map[string]bool)
	for _, pkg := range pkgs {
		// write records one write of field with value rhs (nil: no single
		// expression).
		write := func(field string, rhs ast.Expr) {
			if field == "" {
				return
			}
			owner := field[:strings.LastIndexByte(field, '.')]
			declaredHere := owner[:strings.LastIndexByte(owner, '.')] == pkg.Pkg.Path()
			if declaredHere && rhs != nil && pkg.Info.Types[rhs].Value != nil {
				return
			}
			set[field] = true
		}
		for _, file := range pkg.Files {
			// defaultFill holds the assignments that fill a field's own zero
			// value: those under an if whose condition reads the field.
			defaultFill := make(map[ast.Node]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				ifStmt, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				read := make(map[string]bool)
				ast.Inspect(ifStmt.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if f := selectedField(pkg, e); f != "" {
							read[f] = true
						}
					}
					return true
				})
				ast.Inspect(ifStmt.Body, func(b ast.Node) bool {
					if as, ok := b.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && read[selectedField(pkg, as.Lhs[0])] {
						defaultFill[as] = true
					}
					return true
				})
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					owner, st := optionStruct(pkg.Info.Types[n].Type)
					if owner == "" {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							write(owner+"."+kv.Key.(*ast.Ident).Name, kv.Value)
						} else {
							write(owner+"."+st.Field(i).Name(), elt)
						}
					}
				case *ast.AssignStmt:
					if defaultFill[n] {
						return true
					}
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						write(selectedField(pkg, lhs), rhs)
					}
				case *ast.IncDecStmt:
					write(selectedField(pkg, n.X), nil)
				}
				return true
			})
		}
	}

	var unset []string
	for field := range pos {
		name := strings.TrimPrefix(field, modulePath+"/")
		_, kept := keptFields[name]
		if set[field] && kept {
			t.Errorf("keptFields[%q] is stale: a program sets the field now", name)
		}
		if !set[field] && !kept {
			unset = append(unset, field)
		}
	}
	for name, reason := range keptFields {
		if _, ok := pos[modulePath+"/"+name]; !ok {
			t.Errorf("keptFields[%q] names no option field", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptFields[%q] has no reason", name)
		}
	}
	sort.Strings(unset)
	for _, field := range unset {
		t.Errorf("%s: no program of the module sets %s; delete the field and name the constant, or add it to keptFields with the reason it stays",
			pos[field], strings.TrimPrefix(field, modulePath+"/"))
	}
	t.Logf("%d option fields checked, %d allowlist entries", len(pos), len(keptFields))
}
