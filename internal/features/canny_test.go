package features

import (
	"math"
	"testing"

	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

// grayFrom builds a grayscale plane from a function of (x,y).
func grayFrom(w, h int, f func(x, y int) float64) [][]float64 {
	out := make([][]float64, h)
	for y := range out {
		out[y] = make([]float64, w)
		for x := range out[y] {
			out[y][x] = f(x, y)
		}
	}
	return out
}

func TestCannyEmptyInput(t *testing.T) {
	if got := Canny(nil); got != nil {
		t.Errorf("Canny(nil) = %v", got)
	}
	if got := Canny([][]float64{}); got != nil {
		t.Errorf("Canny(empty) = %v", got)
	}
}

func TestCannyFlatImageNoEdges(t *testing.T) {
	gray := grayFrom(32, 32, func(x, y int) float64 { return 100 })
	points := Canny(gray)
	if len(points) != 0 {
		t.Errorf("flat image produced %d edge points", len(points))
	}
}

func TestCannyVerticalStepEdge(t *testing.T) {
	// A vertical step edge: dark left half, bright right half.
	gray := grayFrom(32, 32, func(x, y int) float64 {
		if x < 16 {
			return 0
		}
		return 255
	})
	points := Canny(gray)
	if len(points) < 16 {
		t.Fatalf("vertical step produced only %d edge points", len(points))
	}
	// Edge pixels should cluster near x=16 and the gradient should point
	// horizontally (direction near 0 or pi).
	for _, p := range points {
		if p.X < 13 || p.X > 19 {
			t.Errorf("edge point at x=%d, far from the step at 16", p.X)
		}
		d := math.Abs(math.Mod(p.Direction, math.Pi))
		if d > 0.3 && math.Pi-d > 0.3 {
			t.Errorf("edge direction %v not horizontal", p.Direction)
		}
	}
}

func TestCannyHorizontalStepEdge(t *testing.T) {
	gray := grayFrom(32, 32, func(x, y int) float64 {
		if y < 16 {
			return 0
		}
		return 255
	})
	points := Canny(gray)
	if len(points) < 16 {
		t.Fatalf("horizontal step produced only %d edge points", len(points))
	}
	for _, p := range points {
		if p.Y < 13 || p.Y > 19 {
			t.Errorf("edge point at y=%d, far from the step at 16", p.Y)
		}
		// Gradient should point vertically: |direction| near pi/2.
		if math.Abs(math.Abs(p.Direction)-math.Pi/2) > 0.3 {
			t.Errorf("edge direction %v not vertical", p.Direction)
		}
	}
}

func TestCannyMagnitudePositive(t *testing.T) {
	im := imaging.New(32, 32)
	im.DrawChecker(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 4)
	im.AddNoise(linalg.NewRNG(1), 5)
	points := Canny(im.Gray())
	if len(points) == 0 {
		t.Fatal("checkerboard produced no edges")
	}
	for _, p := range points {
		if p.Magnitude <= 0 {
			t.Fatalf("edge point with non-positive magnitude: %+v", p)
		}
	}
}

func TestGaussianBlurPreservesMean(t *testing.T) {
	rng := linalg.NewRNG(5)
	gray := grayFrom(16, 16, func(x, y int) float64 { return rng.Range(0, 255) })
	blurred := gaussianBlur(gray, 1.2)
	var sumIn, sumOut float64
	for y := range gray {
		for x := range gray[y] {
			sumIn += gray[y][x]
			sumOut += blurred[y][x]
		}
	}
	// Edge clamping changes the mean slightly; allow 5%.
	if math.Abs(sumIn-sumOut)/sumIn > 0.05 {
		t.Errorf("blur changed total mass too much: %v -> %v", sumIn, sumOut)
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	gray := grayFrom(16, 16, func(x, y int) float64 {
		if (x+y)%2 == 0 {
			return 0
		}
		return 255
	})
	blurred := gaussianBlur(gray, 1.5)
	// High-frequency alternation should be strongly attenuated.
	maxDiff := 0.0
	for y := 1; y < 15; y++ {
		for x := 1; x < 15; x++ {
			d := math.Abs(blurred[y][x] - blurred[y][x+1])
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 60 {
		t.Errorf("blur left large pixel-to-pixel differences: %v", maxDiff)
	}
}

func TestSobelOnRamp(t *testing.T) {
	// A linear ramp in x has a constant horizontal gradient.
	gray := grayFrom(16, 16, func(x, y int) float64 { return float64(x) * 10 })
	mag, dir := sobel(gray)
	if mag[8][8] <= 0 {
		t.Fatal("ramp gradient magnitude is zero")
	}
	if math.Abs(dir[8][8]) > 1e-9 {
		t.Errorf("ramp gradient direction = %v, want 0", dir[8][8])
	}
}
