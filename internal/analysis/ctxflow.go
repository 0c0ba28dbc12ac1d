package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context propagation on the serving path. PR 6 threaded
// context.Context from the HTTP layer down through retrieval, core and the
// SMO solver so cancellation, deadlines and engine shutdown reach every
// scan and every training iteration; a function that conjures a fresh root
// context or silently drops the one it was handed punches a hole in that
// chain — the request keeps burning CPU after the caller hung up.
//
// Two checks, on internal/retrieval, internal/server and internal/core:
//
//   - context.Background() / context.TODO() are flagged outside package
//     main (commands own their root contexts; tests are never analyzed —
//     the loader sees the compiler's non-test file set). The serving
//     layer has no such use today; a documented lifecycle root would
//     carry a //cbirlint:ignore ctxflow <reason>.
//   - a named context.Context parameter that is never referenced in the
//     function body is flagged: the signature promises propagation the
//     body does not deliver. An explicitly blank parameter
//     (_ context.Context) is visible in the signature and stays legal for
//     interface conformance.
var CtxFlow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "forbid fresh root contexts and dropped context parameters on the serving path",
	Contract: "cancellation and shutdown reach every scan and solver iteration (PR 6, pinned by the chaos CI job)",
	Applies: ScopeSuffix(
		"internal/retrieval",
		"internal/server",
		"internal/core",
	),
	Run: runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	isMain := p.Pkg.Name() == "main"
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if isMain {
					return true
				}
				obj := p.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
					return true
				}
				switch obj.Name() {
				case "Background", "TODO":
					p.Reportf(n.Pos(), "context.%s on the serving path severs cancellation; thread the caller's context instead", obj.Name())
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkDroppedCtx(p, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkDroppedCtx(p, n.Type, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkDroppedCtx flags named context.Context parameters the body never
// reads.
func checkDroppedCtx(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		t := p.TypesInfo.TypeOf(field.Type)
		if t == nil || !isNamedType(t, "context", "Context") {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := p.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if !identUsed(p, body, obj) {
				p.Reportf(name.Pos(), "context parameter %q is dropped, not propagated; pass it down or make it _ explicitly", name.Name)
			}
		}
	}
}

func identUsed(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}
