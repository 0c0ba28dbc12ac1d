package imaging

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewImageBlack(t *testing.T) {
	im := New(4, 3)
	if im.Width != 4 || im.Height != 3 || len(im.Pix) != 36 {
		t.Fatalf("unexpected shape %dx%d pix=%d", im.Width, im.Height, len(im.Pix))
	}
	r, g, b := im.At(2, 1)
	if r != 0 || g != 0 || b != 0 {
		t.Error("new image is not black")
	}
}

func TestNewInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-size image")
		}
	}()
	New(0, 5)
}

func TestSetAtRoundTrip(t *testing.T) {
	im := New(8, 8)
	im.Set(3, 5, 10, 20, 30)
	r, g, b := im.At(3, 5)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = (%d,%d,%d)", r, g, b)
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	im := New(4, 4)
	im.Set(-1, 0, 255, 255, 255) // must not panic
	im.Set(4, 4, 255, 255, 255)
	r, g, b := im.At(-1, 10)
	if r != 0 || g != 0 || b != 0 {
		t.Error("out-of-bounds read should be black")
	}
}

func TestFill(t *testing.T) {
	im := New(3, 3)
	im.Fill(7, 8, 9)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			r, g, b := im.At(x, y)
			if r != 7 || g != 8 || b != 9 {
				t.Fatalf("Fill failed at (%d,%d)", x, y)
			}
		}
	}
}

func TestGrayLuma(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, 255, 255, 255)
	im.Set(1, 0, 0, 0, 0)
	g := im.Gray()
	if math.Abs(g[0][0]-255) > 1e-9 || g[0][1] != 0 {
		t.Errorf("Gray = %v", g)
	}
}

func TestRGBToHSVKnownValues(t *testing.T) {
	cases := []struct {
		r, g, b uint8
		h, s, v float64
	}{
		{255, 0, 0, 0, 1, 1},
		{0, 255, 0, 120, 1, 1},
		{0, 0, 255, 240, 1, 1},
		{255, 255, 255, 0, 0, 1},
		{0, 0, 0, 0, 0, 0},
		{128, 128, 128, 0, 0, 128.0 / 255},
	}
	for _, c := range cases {
		h, s, v := RGBToHSV(c.r, c.g, c.b)
		if math.Abs(h-c.h) > 0.5 || math.Abs(s-c.s) > 0.01 || math.Abs(v-c.v) > 0.01 {
			t.Errorf("RGBToHSV(%d,%d,%d) = (%v,%v,%v), want (%v,%v,%v)", c.r, c.g, c.b, h, s, v, c.h, c.s, c.v)
		}
	}
}

func TestHSVToRGBKnownValues(t *testing.T) {
	r, g, b := HSVToRGB(0, 1, 1)
	if r != 255 || g != 0 || b != 0 {
		t.Errorf("HSVToRGB(0,1,1) = (%d,%d,%d), want red", r, g, b)
	}
	r, g, b = HSVToRGB(120, 1, 1)
	if r != 0 || g != 255 || b != 0 {
		t.Errorf("HSVToRGB(120,1,1) = (%d,%d,%d), want green", r, g, b)
	}
	r, g, b = HSVToRGB(240, 1, 0.5)
	if r != 0 || g != 0 || b != 128 {
		t.Errorf("HSVToRGB(240,1,0.5) = (%d,%d,%d), want half blue", r, g, b)
	}
}

// Property: RGB -> HSV -> RGB round-trips within quantization error.
func TestPropertyHSVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		h, s, v := RGBToHSV(r, g, b)
		r2, g2, b2 := HSVToRGB(h, s, v)
		return absInt(int(r)-int(r2)) <= 2 && absInt(int(g)-int(g2)) <= 2 && absInt(int(b)-int(b2)) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: HSV ranges are always respected.
func TestPropertyHSVRanges(t *testing.T) {
	f := func(r, g, b uint8) bool {
		h, s, v := RGBToHSV(r, g, b)
		return h >= 0 && h < 360 && s >= 0 && s <= 1 && v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHSVPlanes(t *testing.T) {
	im := New(2, 2)
	im.Fill(255, 0, 0)
	h, s, v := im.HSV()
	if h[1][1] != 0 || s[1][1] != 1 || v[1][1] != 1 {
		t.Errorf("HSV planes for red = (%v,%v,%v)", h[1][1], s[1][1], v[1][1])
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
