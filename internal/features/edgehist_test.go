package features

import (
	"math"
	"testing"

	"lrfcsvm/internal/imaging"
)

func TestEdgeHistDim(t *testing.T) {
	im := imaging.New(32, 32)
	h := EdgeDirectionHistogram(im)
	if len(h) != EdgeHistDim {
		t.Fatalf("dim = %d, want %d", len(h), EdgeHistDim)
	}
}

func TestEdgeHistFlatImageIsZero(t *testing.T) {
	im := imaging.New(32, 32)
	im.Fill(128, 128, 128)
	h := EdgeDirectionHistogram(im)
	if h.Sum() != 0 {
		t.Errorf("flat image histogram sums to %v, want 0", h.Sum())
	}
}

func TestEdgeHistNormalized(t *testing.T) {
	im := imaging.New(32, 32)
	im.DrawChecker(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 4)
	h := EdgeDirectionHistogram(im)
	if math.Abs(h.Sum()-1) > 1e-9 {
		t.Errorf("histogram sums to %v, want 1", h.Sum())
	}
	for i, v := range h {
		if v < 0 {
			t.Errorf("bin %d negative: %v", i, v)
		}
	}
}

func TestEdgeHistVerticalEdgesDominateHorizontalBins(t *testing.T) {
	// Vertical stripes create vertical edges whose gradient is horizontal
	// (pointing in the 0 or 180 degree bins).
	im := imaging.New(48, 48)
	im.DrawStripes(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 12, 0)
	h := EdgeDirectionHistogram(im)
	if h.Sum() == 0 {
		t.Fatal("no edges detected on stripes")
	}
	// Gradient direction ~0 falls in bin 0, ~180 degrees in bin 9.
	horizontalMass := h[0] + h[17] + h[8] + h[9]
	if horizontalMass < 0.6 {
		t.Errorf("horizontal-gradient bins hold only %v of the mass: %v", horizontalMass, h)
	}
}

func TestEdgeHistOrientationSensitivity(t *testing.T) {
	vertical := imaging.New(48, 48)
	vertical.DrawStripes(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 12, 0)
	horizontal := imaging.New(48, 48)
	horizontal.DrawStripes(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 12, math.Pi/2)
	hv := EdgeDirectionHistogram(vertical)
	hh := EdgeDirectionHistogram(horizontal)
	if d := math.Sqrt(hv.SquaredDistance(hh)); d < 0.3 {
		t.Errorf("histograms of orthogonal stripes too similar: %v", d)
	}
}

func TestEdgeHistDeterministic(t *testing.T) {
	im := imaging.New(32, 32)
	im.DrawChecker(imaging.Color{R: 1, G: 0, B: 0}, imaging.Color{R: 0, G: 0, B: 1}, 5)
	a := EdgeDirectionHistogram(im)
	b := EdgeDirectionHistogram(im)
	if !a.Equal(b, 0) {
		t.Error("edge histogram is not deterministic")
	}
}
