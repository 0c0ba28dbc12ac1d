package svm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// trainTestModel trains a small two-cluster RBF model used by the batch
// parity tests.
func trainTestModel(t *testing.T, cfg Config) (*Model, []kernel.Point, []linalg.Vector) {
	t.Helper()
	rng := linalg.NewRNG(11)
	var vecs []linalg.Vector
	var labels []float64
	for i := 0; i < 24; i++ {
		center := 0.0
		label := -1.0
		if i%2 == 0 {
			center = 3.0
			label = 1.0
		}
		vecs = append(vecs, linalg.Vector{
			center + rng.Normal(0, 0.8),
			rng.Normal(0, 0.8),
			rng.Normal(0, 0.5),
		})
		labels = append(labels, label)
	}
	points := kernel.DensePoints(vecs)
	model, err := Train(NewProblem(points, labels, 1), cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return model, points, vecs
}

// TestDecisionBatchMatchesScalar pins the batched decision path to the
// scalar one on the training points and on fresh probes.
func TestDecisionBatchMatchesScalar(t *testing.T) {
	model, points, _ := trainTestModel(t, Config{Kernel: kernel.RBF{Gamma: 0.5}})
	dst := make([]float64, len(points))
	model.DecisionBatch(points, dst, nil)
	for i, p := range points {
		if want := model.Decision(p); dst[i] != want {
			t.Errorf("DecisionBatch[%d] = %v, want exactly %v", i, dst[i], want)
		}
	}
}

// TestDecisionSetMatchesScalar pins the fused DenseSet decision path to the
// scalar one within 1e-12 (the fused RBF path uses the norm expansion and
// the fast exponential).
func TestDecisionSetMatchesScalar(t *testing.T) {
	model, points, vecs := trainTestModel(t, Config{Kernel: kernel.RBF{Gamma: 0.5}})
	set := kernel.NewDenseSet(vecs)
	dst := make([]float64, set.Len())
	model.DecisionSet(set, dst, nil)
	for i, p := range points {
		want := model.Decision(p)
		if math.Abs(dst[i]-want) > 1e-12 {
			t.Errorf("DecisionSet[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// TestSharedCacheIdenticalModel drives one Solver through a sequence of
// label and cost problems over one point set — a one-class problem, a Solve
// cancelled mid-run and refused invalid ones among them — and holds every
// result to a fresh Train of the same problem bit for bit: alphas, bias,
// iterations, convergence, and the cached decision values against the fresh
// model's DecisionBatch. Kernel values depend on neither labels nor costs,
// so the solver fills its Gram matrix once, evaluating each unordered pair
// once: a second pass over the sequence evaluates no kernel pair.
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
	for pass := 0; pass < 2; pass++ {
		// Every Solve checks its own inputs: there is no trusted mode.
		for i, bad := range invalid {
			if err := s.Solve(bad[0], bad[1]); err == nil {
				t.Errorf("pass %d: invalid problem %d accepted", pass, i)
			}
		}
		for _, p := range problems {
			name := fmt.Sprintf("pass %d, %s", pass, p.name)
			fresh, err := Train(Problem{Points: points, Labels: p.labels, C: p.costs}, Config{Kernel: k})
			if err != nil {
				t.Fatalf("%s: fresh Train: %v", name, err)
			}
			before := evals
			if p.cancel {
				if fresh.Iterations <= ctxCheckInterval {
					t.Fatalf("%s: the problem takes %d iterations, too few to cancel mid-run", name, fresh.Iterations)
				}
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
			if pass == 1 && evals != before {
				t.Errorf("%s: evaluated %d kernel pairs, want every row from the solver's cache", name, evals-before)
			}
			got := s.Model()
			if got.Bias != fresh.Bias || got.Iterations != fresh.Iterations || got.Converged != fresh.Converged {
				t.Fatalf("%s: bias %v, %d iterations, converged %v; fresh Train: %v, %d, %v",
					name, got.Bias, got.Iterations, got.Converged, fresh.Bias, fresh.Iterations, fresh.Converged)
			}
			for i := range fresh.Alphas {
				if got.Alphas[i] != fresh.Alphas[i] {
					t.Fatalf("%s: alpha[%d] = %v, fresh Train %v", name, i, got.Alphas[i], fresh.Alphas[i])
				}
			}
			dec, want := make([]float64, n-1), make([]float64, n-1)
			s.Decisions(1, dec)
			fresh.DecisionBatch(points[1:], want, nil)
			for i := range want {
				if math.Float64bits(dec[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: Decisions[%d] = %v, fresh DecisionBatch %v", name, i, dec[i], want[i])
				}
			}
		}
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
