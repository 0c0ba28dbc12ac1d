package features

import (
	"math"
	"testing"

	"lrfcsvm/internal/imaging"
)

func TestColorMomentsDim(t *testing.T) {
	im := imaging.New(16, 16)
	cm := ColorMoments(im)
	if len(cm) != ColorMomentDim {
		t.Fatalf("dim = %d, want %d", len(cm), ColorMomentDim)
	}
}

func TestColorMomentsConstantImage(t *testing.T) {
	im := imaging.New(16, 16)
	im.Fill(255, 0, 0) // pure red: H=0, S=1, V=1
	cm := ColorMoments(im)
	// Means: H/360 = 0, S = 1, V = 1. Variances and skewnesses = 0.
	if math.Abs(cm[0]) > 1e-9 || math.Abs(cm[1]) > 1e-9 || math.Abs(cm[2]) > 1e-9 {
		t.Errorf("hue moments of constant red image = %v", cm[:3])
	}
	if math.Abs(cm[3]-1) > 1e-9 || math.Abs(cm[4]) > 1e-9 {
		t.Errorf("saturation moments = %v", cm[3:6])
	}
	if math.Abs(cm[6]-1) > 1e-9 || math.Abs(cm[7]) > 1e-9 {
		t.Errorf("value moments = %v", cm[6:9])
	}
}

func TestColorMomentsDistinguishHues(t *testing.T) {
	red := imaging.New(16, 16)
	red.Fill(255, 0, 0)
	blue := imaging.New(16, 16)
	blue.Fill(0, 0, 255)
	cmRed := ColorMoments(red)
	cmBlue := ColorMoments(blue)
	if math.Abs(cmRed[0]-cmBlue[0]) < 0.1 {
		t.Errorf("hue means of red (%v) and blue (%v) are not separated", cmRed[0], cmBlue[0])
	}
}

func TestColorMomentsVarianceSensitivity(t *testing.T) {
	flat := imaging.New(16, 16)
	flat.Fill(128, 128, 128)
	varied := imaging.New(16, 16)
	varied.DrawChecker(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 2)
	cmFlat := ColorMoments(flat)
	cmVar := ColorMoments(varied)
	// Value-channel variance (index 7) should be much larger for the checkerboard.
	if cmVar[7] <= cmFlat[7] {
		t.Errorf("checkerboard V variance %v not greater than flat %v", cmVar[7], cmFlat[7])
	}
}

func TestColorMomentsFinite(t *testing.T) {
	im := imaging.New(8, 8)
	im.DrawGradient(imaging.Color{R: 0.1, G: 0.9, B: 0.3}, imaging.Color{R: 0.8, G: 0.1, B: 0.9}, 1.1)
	cm := ColorMoments(im)
	if n := cm.Dot(cm); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Errorf("color moments contain NaN/Inf: %v", cm)
	}
}
