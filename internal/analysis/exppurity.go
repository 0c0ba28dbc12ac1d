package analysis

import "go/ast"

// ExpPurity keeps internal/kernel the single source of truth for
// exponentials. PR 1 introduced the Cephes fast path and PR 8 pinned its
// contract. It is the RBF kernel's only exponential: RBF.Eval calls
// kernel.expOne, and every batched RBF path (the trainer's Gram rows,
// EvalSet, the scans' tile) runs the exp routine of the active kernel
// backend (Go lanes or AVX2 assembly), bit-identical to it and within 2 ulp
// of math.Exp inside [-700, 700]. A stray math.Exp in training or scoring
// code would fork that contract — two exponentials with different rounding
// feeding the same ranking — and, since amd64's math.Exp rounds differently
// on a CPU with FMA, make pinned bits depend on the CPU, so outside
// internal/kernel the exp family is forbidden. Cold paths with a genuine
// need (one-time filter construction, command-line reporting) carry a
// //cbirlint:ignore exppurity <reason>; hot paths call kernel's batched
// primitives instead.
var ExpPurity = &Analyzer{
	Name:     "exppurity",
	Doc:      "forbid math.Exp and friends outside internal/kernel, whose backends own the pinned exponential",
	Contract: "one exponential definition (kernel.expOne), ≤2 ulp of math.Exp, for training and scoring alike; every kernel backend's exp routine, Go or assembly, is bit-identical to it, so no pinned bit depends on the CPU's FMA (PR 1/PR 8/PR 22, pinned by FuzzExp, TestKernelsMatchReference and the test job's GODEBUG=cpu.fma=off run)",
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
