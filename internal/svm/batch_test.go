package svm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// TestSharedCacheIdenticalModel drives one Solver through a sequence of
// label and cost problems over one point set — a one-class problem, a Solve
// cancelled mid-run and refused invalid ones among them — twice, and holds
// every result of the second pass to the first bit for bit: alphas, bias,
// iterations, convergence. A Solve depends on its labels and costs alone, not
// on the Solves before it. (That a Solver's result is a fresh Train's is the
// core refine driver's to check: its reference trains fresh at every step.)
// Kernel values depend on neither labels nor costs, so the solver fills its
// Gram matrix once, evaluating each unordered pair once: the second pass
// evaluates no kernel pair.
func TestSharedCacheIdenticalModel(t *testing.T) {
	k := kernel.RBF{Gamma: 1}
	rng := linalg.NewRNG(5)
	const n = 160
	vecs := make([]linalg.Vector, n)
	for i := range vecs {
		vecs[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
	}
	points := kernel.DensePoints(vecs)
	uniform := func(c float64) []float64 {
		cs := make([]float64, n)
		for i := range cs {
			cs[i] = c
		}
		return cs
	}
	random, noisy, clean := make([]float64, n), make([]float64, n), make([]float64, n)
	ones, varied := make([]float64, n), make([]float64, n)
	for i, v := range vecs {
		random[i] = 1 - 2*float64(rng.Intn(2))
		noisy[i], clean[i] = -1, -1
		if v[0]+0.5*rng.Normal(0, 1) > 0 {
			noisy[i] = 1
		}
		if v[0] > 0 {
			clean[i] = 1
		}
		ones[i] = 1
		varied[i] = 0.1 + float64(i%7)
	}
	problems := []struct {
		name          string
		labels, costs []float64
		cancel        bool
	}{
		{"random labels", random, uniform(0.01), false},
		{"noisy boundary, large cost", noisy, uniform(100), false},
		{"clean boundary, varied costs", clean, varied, false},
		{"one class", ones, uniform(1), false},
		{"cancelled mid-run", noisy, uniform(100), true},
		{"after the cancelled run", noisy, uniform(100), false},
		{"clean boundary, small cost", clean, uniform(0.05), false},
	}

	var evals int
	ctx := &pollCountdownCtx{Context: context.Background(), remaining: math.MaxInt}
	s, err := NewSolver(points, Config{Kernel: countingKernel{k, &evals}, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	zeroLabel := append([]float64(nil), clean...)
	zeroLabel[5] = 0
	nanCost := uniform(1)
	nanCost[3] = math.NaN()
	invalid := [][2][]float64{{zeroLabel, uniform(1)}, {clean, nanCost}, {clean[1:], uniform(1)[1:]}}
	first := map[string]*Model{}
	for pass := 0; pass < 2; pass++ {
		// Every Solve checks its own inputs: there is no trusted mode.
		for i, bad := range invalid {
			if err := s.Solve(bad[0], bad[1]); err == nil {
				t.Errorf("pass %d: invalid problem %d accepted", pass, i)
			}
		}
		for _, p := range problems {
			name := fmt.Sprintf("pass %d, %s", pass, p.name)
			before := evals
			if p.cancel {
				// The entry check takes the one poll left; the first
				// periodic poll cancels.
				ctx.remaining = 1
				if err := s.Solve(p.labels, p.costs); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: Solve error = %v, want context.Canceled", name, err)
				}
				if ctx.remaining != -1 {
					t.Fatalf("%s: the solver did not stop at its first periodic poll (remaining=%d)", name, ctx.remaining)
				}
				ctx.remaining = math.MaxInt
				continue
			}
			if err := s.Solve(p.labels, p.costs); err != nil {
				t.Fatalf("%s: Solve: %v", name, err)
			}
			got := s.Model()
			want, ok := first[p.name]
			if !ok {
				first[p.name] = got
				continue
			}
			if evals != before {
				t.Errorf("%s: evaluated %d kernel pairs, want every row from the solver's cache", name, evals-before)
			}
			if got.Bias != want.Bias || got.Iterations != want.Iterations || got.Converged != want.Converged || !slices.Equal(got.Alphas, want.Alphas) {
				t.Fatalf("%s: bias %v, %d iterations, converged %v; the first pass: %v, %d, %v",
					name, got.Bias, got.Iterations, got.Converged, want.Bias, want.Iterations, want.Converged)
			}
		}
	}
	if first["cancelled mid-run"] != nil || first["after the cancelled run"].Iterations <= ctxCheckInterval {
		t.Errorf("the cancelled problem takes %d iterations, too few to cancel mid-run", first["after the cancelled run"].Iterations)
	}
	if evals != n*(n+1)/2 {
		t.Errorf("%d kernel pairs evaluated, want the %d unordered pairs, each once", evals, n*(n+1)/2)
	}
}

// TestSolverGrowEvaluatesOnlyNewPairs: a solver grown from one that filled
// its Gram matrix trains the joined points as a fresh Train does, bit for
// bit, and evaluates only the pairs with a new point; the receiver keeps its
// solution.
func TestSolverGrowEvaluatesOnlyNewPairs(t *testing.T) {
	k := kernel.RBF{Gamma: 0.7}
	rng := linalg.NewRNG(17)
	const n, nl = 30, 18
	vecs := make([]linalg.Vector, n)
	labels, costs := make([]float64, n), make([]float64, n)
	for i := range vecs {
		vecs[i] = linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)}
		labels[i], costs[i] = -1, 1
		if vecs[i][0]+0.3*rng.Normal(0, 1) > 0 {
			labels[i] = 1
		}
		if i >= nl {
			costs[i] = 0.25
		}
	}
	points := kernel.DensePoints(vecs)
	var evals int
	base, err := NewSolver(points[:nl], Config{Kernel: countingKernel{k, &evals}})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Solve(labels[:nl], costs[:nl]); err != nil {
		t.Fatal(err)
	}
	if evals != nl*(nl+1)/2 {
		t.Fatalf("the base evaluated %d pairs, want %d", evals, nl*(nl+1)/2)
	}
	before := base.Model()
	grown := base.Grow(points[nl:])
	if err := grown.Solve(labels, costs); err != nil {
		t.Fatal(err)
	}
	if want := nl*(nl+1)/2 + (n-nl)*nl + (n-nl)*(n-nl+1)/2; evals != want {
		t.Errorf("base and growth evaluated %d pairs, want %d", evals, want)
	}
	fresh, err := Train(Problem{Points: points, Labels: labels, C: costs}, Config{Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *Model
	}{{"grown", grown.Model(), fresh}, {"base", base.Model(), before}} {
		if math.Float64bits(c.got.Bias) != math.Float64bits(c.want.Bias) || c.got.Iterations != c.want.Iterations || len(c.got.Alphas) != len(c.want.Alphas) {
			t.Fatalf("%s: bias %v, %d iterations, %d alphas; want %v, %d, %d", c.name, c.got.Bias, c.got.Iterations, len(c.got.Alphas), c.want.Bias, c.want.Iterations, len(c.want.Alphas))
		}
		for i, a := range c.want.Alphas {
			if math.Float64bits(c.got.Alphas[i]) != math.Float64bits(a) {
				t.Errorf("%s: alpha[%d] = %v, want %v", c.name, i, c.got.Alphas[i], a)
			}
		}
	}
}

// countingKernel counts the pair evaluations a cache asks its kernel for.
// It has no batched path, so the cache fills its rows through Eval, whose
// RBF arithmetic is the batched dense path's bit for bit.
type countingKernel struct {
	kernel.Kernel
	n *int
}

func (c countingKernel) Eval(x, y kernel.Point) float64 {
	*c.n++
	return c.Kernel.Eval(x, y)
}
