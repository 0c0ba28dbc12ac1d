package analysis

import "go/ast"

// ExpPurity keeps internal/kernel the single source of truth for
// exponentials. PR 1 introduced the Cephes fast path and PR 8 pinned its
// contract: every batched RBF exponential is the exp routine of the kernel
// backend RBF.AccumulateSet runs on (Go lanes or, since PR 22, AVX2
// assembly), bit-identical across backends and within 2 ulp of math.Exp
// inside [-700, 700]. A stray math.Exp in scoring code would fork
// that contract — two exponentials with different rounding feeding the
// same ranking — and silently break cross-backend bit-identity, so outside
// internal/kernel the exp family is forbidden. Cold paths with a genuine
// need (one-time filter construction, command-line reporting) carry a
// //cbirlint:ignore exppurity <reason>; hot paths call kernel's batched
// primitives instead.
var ExpPurity = &Analyzer{
	Name:     "exppurity",
	Doc:      "forbid math.Exp and friends outside internal/kernel, whose backends own the pinned exponential",
	Contract: "one exponential definition (kernel.expOne), ≤2 ulp of math.Exp; every kernel backend's exp routine, Go or assembly, is bit-identical to it (PR 1/PR 8/PR 22, pinned by FuzzExp and TestKernelsMatchReference)",
	Applies:  ExcludeSuffix("internal/kernel"),
	Run:      runExpPurity,
}

// expFuncs is the math exp family whose rounding the kernel contract pins.
var expFuncs = map[string]bool{
	"Exp":   true,
	"Exp2":  true,
	"Expm1": true,
}

func runExpPurity(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "math" || !expFuncs[obj.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "math.%s outside internal/kernel forks the pinned exponential; score through kernel.RBF.AccumulateSet, whose backend owns the exponential, or annotate a cold path", obj.Name())
			return true
		})
	}
	return nil
}
