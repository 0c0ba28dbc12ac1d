package svm

import (
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

func densePoints(vs ...linalg.Vector) []kernel.Point { return kernel.DensePoints(vs) }

func TestProblemValidate(t *testing.T) {
	good := NewProblem(densePoints(linalg.Vector{0}, linalg.Vector{1}), []float64{-1, 1}, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []Problem{
		{},
		{Points: densePoints(linalg.Vector{0}), Labels: []float64{1, 1}, C: []float64{1}},
		{Points: densePoints(linalg.Vector{0}), Labels: []float64{0}, C: []float64{1}},
		{Points: densePoints(linalg.Vector{0}), Labels: []float64{1}, C: []float64{0}},
		{Points: densePoints(linalg.Vector{0}), Labels: []float64{1}, C: []float64{math.Inf(1)}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestTrainRequiresKernel(t *testing.T) {
	p := NewProblem(densePoints(linalg.Vector{0}, linalg.Vector{1}), []float64{-1, 1}, 1)
	if _, err := Train(p, Config{}); err == nil {
		t.Error("expected error without kernel")
	}
}

func TestTrainLinearlySeparable1D(t *testing.T) {
	// Points at -2,-1 labeled -1 and +1,+2 labeled +1: a linear kernel must
	// separate them perfectly with the boundary near 0.
	p := NewProblem(
		densePoints(linalg.Vector{-2}, linalg.Vector{-1}, linalg.Vector{1}, linalg.Vector{2}),
		[]float64{-1, -1, 1, 1}, 10)
	m, err := Train(p, Config{Kernel: kernel.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Error("solver did not converge")
	}
	for i, pt := range p.Points {
		if got := m.Predict(pt); got != p.Labels[i] {
			t.Errorf("point %d predicted %v, want %v", i, got, p.Labels[i])
		}
	}
	// Margin points are at +-1, so |f| there should be close to 1.
	fPlus := m.Decision(kernel.Dense(linalg.Vector{1}))
	fMinus := m.Decision(kernel.Dense(linalg.Vector{-1}))
	if math.Abs(fPlus-1) > 0.05 || math.Abs(fMinus+1) > 0.05 {
		t.Errorf("margin decision values: f(+1)=%v f(-1)=%v", fPlus, fMinus)
	}
	// The bias should be near zero by symmetry.
	if math.Abs(m.Bias) > 0.05 {
		t.Errorf("bias = %v, want ~0", m.Bias)
	}
}

func TestTrainSymmetric2D(t *testing.T) {
	// The classic 2D AND-like separable arrangement.
	pts := densePoints(
		linalg.Vector{1, 1}, linalg.Vector{2, 2}, linalg.Vector{2, 0},
		linalg.Vector{-1, -1}, linalg.Vector{-2, -2}, linalg.Vector{-2, 0},
	)
	labels := []float64{1, 1, 1, -1, -1, -1}
	m, err := Train(NewProblem(pts, labels, 5), Config{Kernel: kernel.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if m.Predict(pt) != labels[i] {
			t.Errorf("point %d misclassified", i)
		}
	}
}

func TestTrainXORWithRBF(t *testing.T) {
	// XOR is not linearly separable but an RBF kernel must fit it.
	pts := densePoints(
		linalg.Vector{0, 0}, linalg.Vector{1, 1},
		linalg.Vector{0, 1}, linalg.Vector{1, 0},
	)
	labels := []float64{1, 1, -1, -1}
	m, err := Train(NewProblem(pts, labels, 100), Config{Kernel: kernel.RBF{Gamma: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if m.Predict(pt) != labels[i] {
			t.Errorf("XOR point %d misclassified (decision %v)", i, m.Decision(pt))
		}
	}
}

func TestTrainSingleClass(t *testing.T) {
	pts := densePoints(linalg.Vector{1}, linalg.Vector{2}, linalg.Vector{3})
	m, err := Train(NewProblem(pts, []float64{1, 1, 1}, 1), Config{Kernel: kernel.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SupportPoints) != 0 {
		t.Errorf("one-class model has %d SVs", len(m.SupportPoints))
	}
	if m.Predict(kernel.Dense(linalg.Vector{-100})) != 1 {
		t.Error("one-class positive model should always predict +1")
	}
	mNeg, err := Train(NewProblem(pts, []float64{-1, -1, -1}, 1), Config{Kernel: kernel.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if mNeg.Predict(kernel.Dense(linalg.Vector{0})) != -1 {
		t.Error("one-class negative model should always predict -1")
	}
}

func TestDualConstraintsRespected(t *testing.T) {
	rng := linalg.NewRNG(7)
	var pts []linalg.Vector
	var labels []float64
	for i := 0; i < 40; i++ {
		y := 1.0
		cx := 1.5
		if i%2 == 0 {
			y = -1
			cx = -1.5
		}
		pts = append(pts, linalg.Vector{cx + rng.Normal(0, 1), rng.Normal(0, 1)})
		labels = append(labels, y)
	}
	c := 2.0
	p := NewProblem(kernel.DensePoints(pts), labels, c)
	m, err := Train(p, Config{Kernel: kernel.RBF{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	// 0 <= alpha_i <= C_i.
	var sumAY float64
	for i, a := range m.Alphas {
		if a < -1e-9 || a > c+1e-9 {
			t.Errorf("alpha[%d] = %v outside [0,%v]", i, a, c)
		}
		sumAY += a * labels[i]
	}
	// Equality constraint sum alpha_i y_i = 0.
	if math.Abs(sumAY) > 1e-6 {
		t.Errorf("sum alpha*y = %v, want 0", sumAY)
	}
}

func TestPerSampleCostCap(t *testing.T) {
	// Give one noisy point a tiny cost cap: its alpha cannot exceed it, so
	// the model effectively ignores it.
	pts := densePoints(
		linalg.Vector{-2}, linalg.Vector{-1}, linalg.Vector{1}, linalg.Vector{2},
		linalg.Vector{-1.5}, // mislabeled point
	)
	labels := []float64{-1, -1, 1, 1, 1}
	costs := []float64{10, 10, 10, 10, 0.001}
	p := Problem{Points: pts, Labels: labels, C: costs}
	m, err := Train(p, Config{Kernel: kernel.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Alphas[4] > 0.001+1e-12 {
		t.Errorf("capped alpha = %v exceeds its cost bound", m.Alphas[4])
	}
	// The clean points must still be classified correctly.
	for i := 0; i < 4; i++ {
		if m.Predict(pts[i]) != labels[i] {
			t.Errorf("clean point %d misclassified", i)
		}
	}
}

func TestNoisyDataConverges(t *testing.T) {
	rng := linalg.NewRNG(11)
	var pts []linalg.Vector
	var labels []float64
	for i := 0; i < 60; i++ {
		y := 1.0
		cx := 1.2
		if i%2 == 0 {
			y = -1
			cx = -1.2
		}
		// Heavy overlap plus 10% label noise.
		if rng.Float64() < 0.1 {
			y = -y
		}
		pts = append(pts, linalg.Vector{cx + rng.Normal(0, 1), rng.Normal(0, 1)})
		labels = append(labels, y)
	}
	m, err := Train(NewProblem(kernel.DensePoints(pts), labels, 1), Config{Kernel: kernel.RBF{Gamma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Error("solver did not converge on noisy data")
	}
	// It must still do noticeably better than chance on the training set.
	correct := 0
	for i := range pts {
		if m.Predict(kernel.Dense(pts[i])) == labels[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(pts)); frac < 0.7 {
		t.Errorf("training accuracy %v too low", frac)
	}
}

func TestDecisionConsistentWithAlphas(t *testing.T) {
	// f(x_i) computed through the model must equal the value implied by the
	// dual variables: f(x_i) = sum_j alpha_j y_j K(x_j,x_i) + b.
	pts := densePoints(
		linalg.Vector{0, 0}, linalg.Vector{1, 0}, linalg.Vector{0, 1},
		linalg.Vector{3, 3}, linalg.Vector{4, 3}, linalg.Vector{3, 4},
	)
	labels := []float64{-1, -1, -1, 1, 1, 1}
	k := kernel.RBF{Gamma: 0.7}
	m, err := Train(NewProblem(pts, labels, 5), Config{Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		manual := m.Bias
		for j, pj := range pts {
			manual += m.Alphas[j] * labels[j] * k.Eval(pj, pt)
		}
		if got := m.Decision(pt); math.Abs(got-manual) > 1e-9 {
			t.Errorf("decision[%d] = %v, manual = %v", i, got, manual)
		}
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	rng := linalg.NewRNG(5)
	var pts []linalg.Vector
	var labels []float64
	for i := 0; i < 50; i++ {
		pts = append(pts, linalg.Vector{rng.Normal(0, 1), rng.Normal(0, 1)})
		if i%2 == 0 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, -1)
		}
	}
	m, err := Train(NewProblem(kernel.DensePoints(pts), labels, 1000),
		Config{Kernel: kernel.RBF{Gamma: 10}, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations > 3 {
		t.Errorf("performed %d iterations, budget was 3", m.Iterations)
	}
}

func TestSparseLogVectorTraining(t *testing.T) {
	// Train on sparse +-1 log-style vectors: images co-marked in the same
	// sessions should end up on the same side.
	mk := func(vals ...float64) kernel.Point {
		return kernel.NewSparse(sparseFrom(vals))
	}
	pts := []kernel.Point{
		mk(1, 1, 0, 0, -1, 0), mk(1, 1, 1, 0, 0, 0), mk(0, 1, 1, 0, -1, 0),
		mk(-1, 0, -1, 1, 1, 0), mk(0, -1, 0, 1, 1, 1), mk(-1, -1, 0, 0, 1, 1),
	}
	labels := []float64{1, 1, 1, -1, -1, -1}
	m, err := Train(Problem{Points: pts, Labels: labels, C: uniform(len(pts), 10)},
		Config{Kernel: kernel.RBF{Gamma: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if m.Predict(pt) != labels[i] {
			t.Errorf("log vector %d misclassified", i)
		}
	}
}

func uniform(n int, c float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c
	}
	return out
}
