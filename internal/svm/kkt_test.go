package svm

import (
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// This file is the solver property suite: after every Train, the dual
// iterate must satisfy the box constraints, the equality constraint and —
// when the solver reports convergence — the KKT stopping criterion within
// tolerance, all re-verified from scratch against the kernel rather than
// the solver's own incrementally maintained state. The SMO objective must
// also decrease monotonically along the iterate path. The suite runs over
// table-driven randomized problems and as a fuzz target (FuzzTrainKKT) so
// the optimizer can keep being rewritten without silently breaking the
// mathematics.

// kktProblem deterministically builds a randomized soft-margin problem from
// a seed: two noisy, possibly overlapping clusters with occasional label
// noise, per-sample costs spread around a lognormal base, and a kernel
// picked by the seed: dense linear, dense RBF (the visual modality's pair) or
// linear over sparse log vectors (the log modality's pair).
func kktProblem(seed uint64) (Problem, Config) {
	rng := linalg.NewRNG(seed)
	n := 8 + rng.Intn(48)
	dim := 2 + rng.Intn(3)
	sep := 0.5 + 2.5*rng.Float64()
	noise := 0.15 * rng.Float64()
	pts := make([]linalg.Vector, n)
	labels := make([]float64, n)
	costs := make([]float64, n)
	baseC := math.Exp(rng.Normal(0, 1))
	for i := range pts {
		y, cx := 1.0, sep
		if i%2 == 0 {
			y, cx = -1, -sep
		}
		if rng.Float64() < noise {
			y = -y
		}
		v := make(linalg.Vector, dim)
		v[0] = cx + rng.Normal(0, 1)
		for d := 1; d < dim; d++ {
			v[d] = rng.Normal(0, 1)
		}
		pts[i] = v
		labels[i] = y
		costs[i] = baseC * (0.25 + 2*rng.Float64())
	}
	points := kernel.DensePoints(pts)
	var k kernel.Kernel
	switch rng.Intn(3) {
	case 0:
		k = kernel.Linear{}
	case 1:
		k = kernel.RBF{Gamma: 0.1 + 2*rng.Float64()}
	default:
		// The pair the log SVM trains: the linear co-judgment kernel over
		// sparse ±1 relevance vectors, one coordinate per past session and
		// most of them unjudged (some points end up with no entry at all),
		// whose Gram matrix kernel.Cache gathers through the points inverted
		// by session. A session judges a point by its label, wrongly one
		// time in five.
		k = kernel.Linear{}
		sessions := 6 + rng.Intn(30)
		logs := make([]*sparse.Vector, n)
		for i := range logs {
			logs[i] = sparse.New(sessions)
			for s := 0; s < sessions; s++ {
				if rng.Float64() >= 0.3 {
					continue
				}
				judgment := labels[i]
				if rng.Float64() < 0.2 {
					judgment = -judgment
				}
				logs[i].Set(s, judgment)
			}
		}
		points = kernel.SparsePoints(logs)
	}
	return Problem{Points: points, Labels: labels, C: costs}, Config{Kernel: k}
}

// scratchGradient recomputes G_i = (Q alpha)_i - 1 from the kernel alone.
func scratchGradient(p Problem, k kernel.Kernel, alphas []float64) []float64 {
	n := len(p.Points)
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		g := -1.0
		for j, a := range alphas {
			if a != 0 {
				g += a * p.Labels[j] * p.Labels[i] * k.Eval(p.Points[j], p.Points[i])
			}
		}
		grad[i] = g
	}
	return grad
}

// kktViolation computes the maximal-violating-pair gap max(up) - min(low)
// from a freshly recomputed gradient. The second return is false when one
// of the sets is empty (degenerate problems), in which case there is no
// violating pair by definition.
func kktViolation(p Problem, grad, alphas []float64) (float64, bool) {
	maxUp, minLow := math.Inf(-1), math.Inf(1)
	for t, y := range p.Labels {
		a := alphas[t]
		v := -y * grad[t]
		if (y > 0 && a < p.C[t]) || (y < 0 && a > 0) {
			if v > maxUp {
				maxUp = v
			}
		}
		if (y > 0 && a > 0) || (y < 0 && a < p.C[t]) {
			if v < minLow {
				minLow = v
			}
		}
	}
	if math.IsInf(maxUp, -1) || math.IsInf(minLow, 1) {
		return 0, false
	}
	return maxUp - minLow, true
}

// checkKKT verifies the solver's contract on a trained model: every dual
// variable inside its box, the equality constraint satisfied, and — when
// the solver reports convergence — the KKT stopping criterion within
// tolerance, with the gradient recomputed from scratch so the check is
// independent of the solver's incremental bookkeeping.
func checkKKT(t *testing.T, p Problem, cfg Config, m *Model) {
	t.Helper()
	var sumAY, sumAbs float64
	for i, a := range m.Alphas {
		if math.IsNaN(a) || a < 0 || a > p.C[i] {
			t.Errorf("alpha[%d] = %v outside [0, %v]", i, a, p.C[i])
		}
		sumAY += a * p.Labels[i]
		sumAbs += a
	}
	if eps := 1e-9 * (1 + sumAbs); math.Abs(sumAY) > eps {
		t.Errorf("sum alpha*y = %v, want 0 (eps %v)", sumAY, eps)
	}
	grad := scratchGradient(p, cfg.Kernel, m.Alphas)
	scale := 1.0
	for _, g := range grad {
		if a := math.Abs(g); a > scale {
			scale = a
		}
	}
	violation, ok := kktViolation(p, grad, m.Alphas)
	if m.Converged && ok && violation > tolerance+1e-9*scale {
		t.Errorf("converged model violates KKT: gap %v > tolerance %v", violation, tolerance)
	}
	if math.IsNaN(m.Bias) || math.IsInf(m.Bias, 0) {
		t.Errorf("bias = %v", m.Bias)
	}
}

func TestTrainKKTProperties(t *testing.T) {
	for seed := uint64(1); seed <= 14; seed++ {
		p, cfg := kktProblem(seed)
		m, err := Train(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !m.Converged {
			t.Errorf("seed %d: did not converge in %d iterations", seed, m.Iterations)
		}
		checkKKT(t, p, cfg, m)
	}
}

// dualObjective evaluates 1/2 alpha' Q alpha - e' alpha from scratch.
func dualObjective(p Problem, k kernel.Kernel, alphas []float64) float64 {
	var quad, lin float64
	for i, ai := range alphas {
		if ai == 0 {
			continue
		}
		for j, aj := range alphas {
			if aj == 0 {
				continue
			}
			quad += ai * aj * p.Labels[i] * p.Labels[j] * k.Eval(p.Points[i], p.Points[j])
		}
	}
	for _, a := range alphas {
		lin += a
	}
	return 0.5*quad - lin
}

// TestTrainObjectiveMonotone re-runs the deterministic solver with growing
// iteration budgets: the dual objective after k iterations must never
// increase in k — each SMO pair update solves its two-variable subproblem
// exactly, so the full iterate path is a descent path.
func TestTrainObjectiveMonotone(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		p, cfg := kktProblem(seed)
		full, err := Train(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stride := 1
		if full.Iterations > 120 {
			stride = full.Iterations/120 + 1
		}
		last := 0.0 // objective of the zero start
		for k := 1; k <= full.Iterations; k += stride {
			cfgK := cfg
			cfgK.MaxIterations = k
			m, err := Train(p, cfgK)
			if err != nil {
				t.Fatal(err)
			}
			obj := dualObjective(p, cfg.Kernel, m.Alphas)
			if eps := 1e-9 * (1 + math.Abs(last)); obj > last+eps {
				t.Fatalf("seed %d: objective rose from %v to %v at iteration %d",
					seed, last, obj, k)
			}
			last = obj
		}
	}
}

// FuzzTrainKKT fuzzes the solver invariants over the randomized problem
// space: any (seed, cost-scale) combination must produce a model
// inside the dual feasible region, and a converged one must satisfy the KKT
// criterion — the same checks the table-driven suite applies, under
// arbitrary adversarial parameters.
func FuzzTrainKKT(f *testing.F) {
	f.Add(uint64(1), 1.0)
	f.Add(uint64(7), 0.1)
	f.Add(uint64(42), 25.0)
	f.Add(uint64(99), 1000.0)
	f.Add(uint64(123456789), 3.5)
	f.Fuzz(func(t *testing.T, seed uint64, cScale float64) {
		if math.IsNaN(cScale) || cScale < 1e-6 || cScale > 1e6 {
			t.Skip()
		}
		p, cfg := kktProblem(seed)
		for i := range p.C {
			p.C[i] *= cScale
		}
		m, err := Train(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkKKT(t, p, cfg, m)
	})
}
