package features

import (
	"math"
	"testing"

	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

func TestDaub4FilterProperties(t *testing.T) {
	// The scaling filter must sum to sqrt(2) and have unit energy.
	var sum, energy float64
	for _, h := range d4h {
		sum += h
		energy += h * h
	}
	if math.Abs(sum-math.Sqrt2) > 1e-12 {
		t.Errorf("scaling filter sum = %v, want sqrt(2)", sum)
	}
	if math.Abs(energy-1) > 1e-12 {
		t.Errorf("scaling filter energy = %v, want 1", energy)
	}
	// The wavelet filter must be orthogonal to the scaling filter and sum to 0.
	var gsum, cross float64
	for i := range d4g {
		gsum += d4g[i]
		cross += d4g[i] * d4h[i]
	}
	if math.Abs(gsum) > 1e-12 {
		t.Errorf("wavelet filter sum = %v, want 0", gsum)
	}
	if math.Abs(cross) > 1e-12 {
		t.Errorf("filters not orthogonal: %v", cross)
	}
}

func TestDWT1DEnergyConservation(t *testing.T) {
	rng := linalg.NewRNG(3)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}
	approx := make([]float64, 32)
	detail := make([]float64, 32)
	dwt1D(x, approx, detail)
	var inE, outE float64
	for _, v := range x {
		inE += v * v
	}
	for i := range approx {
		outE += approx[i]*approx[i] + detail[i]*detail[i]
	}
	if math.Abs(inE-outE)/inE > 1e-9 {
		t.Errorf("1D DWT does not conserve energy: %v -> %v", inE, outE)
	}
}

func TestDWT1DConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	approx := make([]float64, 4)
	detail := make([]float64, 4)
	dwt1D(x, approx, detail)
	for i := range detail {
		if math.Abs(detail[i]) > 1e-9 {
			t.Errorf("constant signal produced detail coefficient %v", detail[i])
		}
		if math.Abs(approx[i]-5*math.Sqrt2) > 1e-9 {
			t.Errorf("approx coefficient = %v, want %v", approx[i], 5*math.Sqrt2)
		}
	}
}

func TestDWTSubbandCount(t *testing.T) {
	gray := make([][]float64, 64)
	for y := range gray {
		gray[y] = make([]float64, 64)
		for x := range gray[y] {
			gray[y][x] = float64((x * y) % 255)
		}
	}
	bands := DWT(gray, 3)
	if len(bands) != 9 {
		t.Fatalf("3-level DWT of 64x64 produced %d subbands, want 9", len(bands))
	}
	// Finest level has 32x32 coefficients per band, coarsest 8x8.
	if len(bands[0].Coeffs) != 32*32 {
		t.Errorf("level-1 subband size = %d, want 1024", len(bands[0].Coeffs))
	}
	if len(bands[8].Coeffs) != 8*8 {
		t.Errorf("level-3 subband size = %d, want 64", len(bands[8].Coeffs))
	}
}

func TestDWTTinyImage(t *testing.T) {
	gray := [][]float64{{1, 2}, {3, 4}}
	bands := DWT(gray, 3)
	if len(bands) != 3 {
		t.Errorf("2x2 image should only support 1 level (3 bands), got %d", len(bands))
	}
	if got := DWT([][]float64{{1}}, 3); got != nil {
		t.Errorf("1x1 image should produce no bands, got %d", len(got))
	}
}

func TestSubbandEntropy(t *testing.T) {
	// All energy in one coefficient: entropy 0.
	if got := SubbandEntropy([]float64{0, 0, 3, 0}); math.Abs(got) > 1e-12 {
		t.Errorf("concentrated entropy = %v, want 0", got)
	}
	// Uniform energy across 4 coefficients: entropy ln 4.
	if got := SubbandEntropy([]float64{1, -1, 1, -1}); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Errorf("uniform entropy = %v, want ln 4", got)
	}
	// Zero energy: entropy 0.
	if got := SubbandEntropy([]float64{0, 0}); got != 0 {
		t.Errorf("zero-energy entropy = %v", got)
	}
}

func TestWaveletTextureDim(t *testing.T) {
	im := imaging.New(64, 64)
	wt := WaveletTexture(im)
	if len(wt) != WaveletDim {
		t.Fatalf("dim = %d, want %d", len(wt), WaveletDim)
	}
}

func TestWaveletTextureRange(t *testing.T) {
	im := imaging.New(64, 64)
	im.DrawChecker(imaging.Color{R: 1, G: 1, B: 1}, imaging.Color{R: 0, G: 0, B: 0}, 3)
	im.AddNoise(linalg.NewRNG(2), 15)
	wt := WaveletTexture(im)
	for i, v := range wt {
		if v < 0 || v > 1.0001 {
			t.Errorf("component %d = %v outside [0,1]", i, v)
		}
	}
}

func TestWaveletTextureDistinguishesFrequencies(t *testing.T) {
	smooth := imaging.New(64, 64)
	smooth.DrawGradient(imaging.Color{R: 0.2, G: 0.2, B: 0.2}, imaging.Color{R: 0.8, G: 0.8, B: 0.8}, 0)
	busy := imaging.New(64, 64)
	busy.Fill(128, 128, 128)
	busy.AddNoise(linalg.NewRNG(7), 60)
	ws := WaveletTexture(smooth)
	wb := WaveletTexture(busy)
	if d := math.Sqrt(ws.SquaredDistance(wb)); d < 0.2 {
		t.Errorf("texture descriptors of smooth vs noisy images too close: %v", d)
	}
}

func TestWaveletTextureConstantImage(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(200, 200, 200)
	wt := WaveletTexture(im)
	for i, v := range wt {
		if math.Abs(v) > 1e-9 {
			t.Errorf("constant image texture[%d] = %v, want 0", i, v)
		}
	}
}
