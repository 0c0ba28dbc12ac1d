package core

import (
	"math"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// twoViewData builds a toy two-modality dataset where both views carry the
// class signal: view A separates along the first axis, view B along the
// second.
func twoViewData(rng *linalg.RNG, n int) (viewA, viewB []kernel.Point, labels []float64) {
	for i := 0; i < n; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		viewA = append(viewA, kernel.Dense(linalg.Vector{y*2 + rng.Normal(0, 0.6), rng.Normal(0, 1)}))
		viewB = append(viewB, kernel.Dense(linalg.Vector{rng.Normal(0, 1), y*2 + rng.Normal(0, 0.6)}))
		labels = append(labels, y)
	}
	return viewA, viewB, labels
}

func TestTrainCoupledValidation(t *testing.T) {
	k := kernel.RBF{Gamma: 1}
	pt := kernel.Dense(linalg.Vector{0})
	valid := Modality{Name: "a", Kernel: k, C: 1, Labeled: []kernel.Point{pt, pt}}
	cases := []struct {
		name       string
		modalities []Modality
		labels     []float64
		unlabeled  []float64
	}{
		{"no modalities", nil, []float64{1, -1}, nil},
		{"no labels", []Modality{valid}, nil, nil},
		{"bad label", []Modality{valid}, []float64{1, 0}, nil},
		{"bad unlabeled label", []Modality{{Name: "a", Kernel: k, C: 1, Labeled: []kernel.Point{pt, pt}, Unlabeled: []kernel.Point{pt}}}, []float64{1, -1}, []float64{0}},
		{"missing kernel", []Modality{{Name: "a", C: 1, Labeled: []kernel.Point{pt, pt}}}, []float64{1, -1}, nil},
		{"bad cost", []Modality{{Name: "a", Kernel: k, C: 0, Labeled: []kernel.Point{pt, pt}}}, []float64{1, -1}, nil},
		{"labeled size mismatch", []Modality{{Name: "a", Kernel: k, C: 1, Labeled: []kernel.Point{pt}}}, []float64{1, -1}, nil},
		{"unlabeled size mismatch", []Modality{{Name: "a", Kernel: k, C: 1, Labeled: []kernel.Point{pt, pt}, Unlabeled: []kernel.Point{pt}}}, []float64{1, -1}, []float64{1, 1}},
	}
	for _, c := range cases {
		if _, err := TrainCoupled(c.modalities, c.labels, c.unlabeled, CoupledConfig{}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// The schedule is validated like the costs, before any training: a
	// non-finite rho would otherwise surface only as a non-finite cost the
	// solver refuses, and a non-finite Delta would reach no check at all.
	far := kernel.Dense(linalg.Vector{3})
	trainable := []Modality{{Name: "a", Kernel: k, C: 1, Labeled: []kernel.Point{pt, far}, Unlabeled: []kernel.Point{pt, far}}}
	if _, err := TrainCoupled(trainable, []float64{1, -1}, []float64{1, -1}, CoupledConfig{}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// The fields left at zero take their defaults.
		for name, cfg := range map[string]CoupledConfig{"Rho": {Rho: v}, "Delta": {Delta: v}} {
			if _, err := TrainCoupled(trainable, []float64{1, -1}, []float64{1, -1}, cfg); err == nil {
				t.Errorf("%s = %v: accepted", name, v)
			}
		}
	}
}

func TestTrainCoupledNoUnlabeledDegeneratesToIndependentSVMs(t *testing.T) {
	rng := linalg.NewRNG(3)
	viewA, viewB, labels := twoViewData(rng, 20)
	res, err := TrainCoupled([]Modality{
		{Name: "a", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: viewA},
		{Name: "b", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: viewB},
	}, labels, nil, CoupledConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("got %d models", len(res.Models))
	}
	// Each per-view model must classify its own view well.
	for i := range viewA {
		if res.Models[0].Predict(viewA[i]) != labels[i] {
			t.Errorf("view A point %d misclassified", i)
		}
		if res.Models[1].Predict(viewB[i]) != labels[i] {
			t.Errorf("view B point %d misclassified", i)
		}
	}
	if res.Flips != 0 || res.RhoSteps != 0 {
		t.Errorf("degenerate run reported flips=%d rhoSteps=%d", res.Flips, res.RhoSteps)
	}
}

func TestTrainCoupledRecoversUnlabeledLabels(t *testing.T) {
	rng := linalg.NewRNG(7)
	labA, labB, labels := twoViewData(rng, 16)
	unlA, unlB, trueUnl := twoViewData(rng, 10)
	// Start half of the unlabeled points with the wrong label: the coupled
	// optimization with label correction should fix most of them.
	initial := make([]float64, len(trueUnl))
	for i := range initial {
		initial[i] = trueUnl[i]
		if i%2 == 0 {
			initial[i] = -trueUnl[i]
		}
	}
	res, err := TrainCoupled([]Modality{
		{Name: "a", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: labA, Unlabeled: unlA},
		{Name: "b", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: labB, Unlabeled: unlB},
	}, labels, initial, CoupledConfig{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range trueUnl {
		if res.UnlabeledLabels[i] == trueUnl[i] {
			correct++
		}
	}
	if correct < 7 {
		t.Errorf("coupled SVM recovered only %d/10 unlabeled labels", correct)
	}
	if res.RhoSteps == 0 || res.Retrainings == 0 {
		t.Errorf("diagnostics empty: %+v", res)
	}
	// The final models should classify the labeled data correctly.
	for i := range labA {
		if res.Models[0].Predict(labA[i]) != labels[i] {
			t.Errorf("labeled point %d misclassified after coupling", i)
		}
	}
}

func TestHinge(t *testing.T) {
	cases := []struct{ margin, want float64 }{
		{2, 0}, {1, 0}, {0.5, 0.5}, {0, 1}, {-1, 2},
	}
	for _, c := range cases {
		if got := hinge(c.margin); got != c.want {
			t.Errorf("hinge(%v) = %v, want %v", c.margin, got, c.want)
		}
	}
}

func TestTrainCoupledRhoScheduleLength(t *testing.T) {
	rng := linalg.NewRNG(13)
	labA, labB, labels := twoViewData(rng, 10)
	unlA, unlB, trueUnl := twoViewData(rng, 4)
	// The weight doubles from 1e-4 while it is below the ceiling, then one
	// final pass runs at the ceiling: 14 + 1 steps to the default ceiling of
	// 1, 12 + 1 to 0.25, the final pass alone at 1e-4.
	for _, c := range []struct {
		rho  float64
		want int
	}{{0, 15}, {1, 15}, {0.25, 13}, {1e-4, 1}} {
		res, err := TrainCoupled([]Modality{
			{Name: "a", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: labA, Unlabeled: unlA},
			{Name: "b", Kernel: kernel.RBF{Gamma: 0.5}, C: 10, Labeled: labB, Unlabeled: unlB},
		}, labels, trueUnl, CoupledConfig{Rho: c.rho})
		if err != nil {
			t.Fatal(err)
		}
		if res.RhoSteps != c.want {
			t.Errorf("Rho %v: RhoSteps = %d, want %d", c.rho, res.RhoSteps, c.want)
		}
	}
}
