package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicPublish enforces the atomic publish discipline behind the engine's
// epoch pattern: state published atomically is read atomically, everywhere,
// always. The typed atomics (atomic.Pointer[epoch], atomic.Int64, ...) make
// a plain access inexpressible; sync/atomic's function API
// (atomic.LoadInt64(&s.seq), atomic.AddInt64, ...) leaves only convention
// between a field and a plain `s.seq` read that tears. So the analyzer
// reports every use of a package-level function of sync/atomic.
var AtomicPublish = &Analyzer{
	Name:     "atomicpublish",
	Doc:      "forbid sync/atomic's function API: atomically published state is a typed atomic, which cannot be accessed plainly",
	Contract: "forward-only atomic publishes are torn-read free (PR 2/PR 4, pinned by the race CI job)",
	Applies:  nil, // every package: a torn read is a bug wherever it lives
	Run:      runAtomicPublish,
}

func runAtomicPublish(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			p.Reportf(sel.Pos(), "atomic.%s leaves its operand open to plain access; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fn.Name())
			return true
		})
	}
	return nil
}
