package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicPublish enforces the atomic publish discipline behind the engine's
// epoch/refine-round pattern: state published with sync/atomic is
// read with sync/atomic, everywhere, always. A struct field that is ever
// the operand of an atomic.LoadX/StoreX/AddX/SwapX/CompareAndSwapX call is
// atomically published; any other read or write of that field in the same
// package is a torn-access bug waiting for the race detector to miss it.
//
// The engine's own publish points use the typed atomics
// (atomic.Pointer[epoch], atomic.Int64, ...) whose API makes non-atomic
// access inexpressible — this analyzer guards the function-based API,
// where nothing but convention keeps a plain `s.seq` read out of code
// that elsewhere does atomic.AddInt64(&s.seq, 1).
//
// Keyed struct-literal initialization is exempt: construction happens
// before the value is shared, and forcing atomics there would obscure it.
var AtomicPublish = &Analyzer{
	Name:     "atomicpublish",
	Doc:      "forbid non-atomic access to fields that are atomically published anywhere in the package",
	Contract: "forward-only atomic publishes are torn-read free (PR 2/PR 4, pinned by the race CI job)",
	Applies:  nil, // every package: a torn read is a bug wherever it lives
	Run:      runAtomicPublish,
}

func runAtomicPublish(p *Pass) error {
	// Pass 1: find every field whose address feeds a sync/atomic call,
	// remembering the selector nodes those sanctioned accesses use.
	atomicFields := make(map[*types.Var]string) // field -> op name seen
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.TypesInfo.Uses[fun.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := fieldOf(p, sel); fv != nil {
					atomicFields[fv] = obj.Name()
					sanctioned[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: every other selector resolving to one of those fields is a
	// non-atomic access.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldOf(p, sel)
			if fv == nil {
				return true
			}
			if op, ok := atomicFields[fv]; ok {
				p.Reportf(sel.Pos(), "field %s is published with atomic.%s elsewhere in this package; this plain access can tear", fv.Name(), op)
			}
			return true
		})
	}
	return nil
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(p *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v
}
