package features

import (
	"math"
	"testing"

	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

func TestExtractDim(t *testing.T) {
	im := imaging.New(32, 32)
	im.DrawChecker(imaging.Color{R: 1, G: 0, B: 0}, imaging.Color{R: 0, G: 0, B: 1}, 4)
	var e Extractor
	d := e.Extract(im)
	if len(d) != Dim {
		t.Fatalf("descriptor dim = %d, want %d", len(d), Dim)
	}
	if Dim != 36 {
		t.Fatalf("composite dim = %d, the paper uses 36", Dim)
	}
	// The engine's admission rule for a descriptor: a finite squared norm.
	if n := d.Dot(d); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Error("descriptor contains NaN/Inf")
	}
}

func TestExtractAllMatchesExtract(t *testing.T) {
	gen, err := dataset.NewGenerator(dataset.Spec{Categories: 3, ImagesPerCategory: 2, Width: 32, Height: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var e Extractor
	all := e.ExtractAll(gen, 3)
	if len(all) != gen.NumImages() {
		t.Fatalf("ExtractAll returned %d descriptors", len(all))
	}
	for i := range all {
		single := e.Extract(gen.Render(i))
		if !all[i].Equal(single, 1e-12) {
			t.Errorf("descriptor %d differs between ExtractAll and Extract", i)
		}
	}
}

func TestExtractAllWorkerCountIndependence(t *testing.T) {
	gen, err := dataset.NewGenerator(dataset.Spec{Categories: 2, ImagesPerCategory: 3, Width: 32, Height: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var e Extractor
	seq := e.ExtractAll(gen, 1)
	par := e.ExtractAll(gen, 4)
	for i := range seq {
		if !seq[i].Equal(par[i], 1e-12) {
			t.Errorf("descriptor %d depends on worker count", i)
		}
	}
}

func TestCategorySeparationInFeatureSpace(t *testing.T) {
	// The synthetic dataset must exhibit the property the paper's
	// evaluation relies on: same-category images are closer on average in
	// feature space than different-category images.
	gen, err := dataset.NewGenerator(dataset.Spec{Categories: 6, ImagesPerCategory: 8, Width: 48, Height: 48, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var e Extractor
	descs := e.ExtractAll(gen, 0)
	norm, err := FitNormalizer(descs)
	if err != nil {
		t.Fatal(err)
	}
	descs = norm.ApplyAll(descs)
	labels := gen.Labels()
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < len(descs); i++ {
		for j := i + 1; j < len(descs); j++ {
			d := math.Sqrt(descs[i].SquaredDistance(descs[j]))
			if labels[i] == labels[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra >= inter {
		t.Errorf("intra-category distance %v >= inter-category distance %v: no visual structure", intra, inter)
	}
	// But the separation must not be trivial, otherwise relevance feedback
	// would have nothing to improve (the "semantic gap").
	if inter/intra > 5 {
		t.Errorf("categories separate too cleanly (ratio %v); semantic gap unrealistically small", inter/intra)
	}
}

func TestFitNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := FitNormalizer([]linalg.Vector{{1, 2}, {1}}); err == nil {
		t.Error("expected error on ragged input")
	}
}

func TestNormalizerStandardizes(t *testing.T) {
	descs := []linalg.Vector{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	n, err := FitNormalizer(descs)
	if err != nil {
		t.Fatal(err)
	}
	out := n.ApplyAll(descs)
	for j := 0; j < 2; j++ {
		col := make(linalg.Vector, len(out))
		for i := range out {
			col[i] = out[i][j]
		}
		if math.Abs(col.Mean()) > 1e-9 {
			t.Errorf("column %d mean = %v, want 0", j, col.Mean())
		}
		if math.Abs(col.Std()-1) > 1e-9 {
			t.Errorf("column %d std = %v, want 1", j, col.Std())
		}
	}
}

func TestNormalizerConstantComponent(t *testing.T) {
	descs := []linalg.Vector{{1, 7}, {2, 7}, {3, 7}}
	n, err := FitNormalizer(descs)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Apply(linalg.Vector{2, 7})
	if math.IsNaN(out[1]) || math.IsInf(out[1], 0) {
		t.Errorf("constant component normalized to %v", out[1])
	}
	if out[1] != 0 {
		t.Errorf("constant component should map to 0, got %v", out[1])
	}
}
