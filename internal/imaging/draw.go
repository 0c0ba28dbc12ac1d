package imaging

import (
	"math"

	"lrfcsvm/internal/linalg"
)

// Color is a floating-point RGB triple with components in [0,1].
type Color struct{ R, G, B float64 }

// FromHSV builds a Color from hue (degrees), saturation and value.
func FromHSV(h, s, v float64) Color {
	r, g, b := HSVToRGB(h, s, v)
	return Color{float64(r) / 255, float64(g) / 255, float64(b) / 255}
}

// Lerp linearly interpolates between c and d by t in [0,1].
func (c Color) Lerp(d Color, t float64) Color {
	return Color{
		R: c.R + (d.R-c.R)*t,
		G: c.G + (d.G-c.G)*t,
		B: c.B + (d.B-c.B)*t,
	}
}

// DrawRect fills the axis-aligned rectangle [x0,x1) x [y0,y1) with c.
// Coordinates outside the image are clipped.
func (im *Image) DrawRect(x0, y0, x1, y1 int, c Color) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			im.SetF(x, y, c.R, c.G, c.B)
		}
	}
}

// DrawCircle fills a disc centered at (cx,cy) with the given radius.
func (im *Image) DrawCircle(cx, cy, radius float64, c Color) {
	x0 := int(math.Floor(cx - radius))
	x1 := int(math.Ceil(cx + radius))
	y0 := int(math.Floor(cy - radius))
	y1 := int(math.Ceil(cy + radius))
	r2 := radius * radius
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			if dx*dx+dy*dy <= r2 {
				im.SetF(x, y, c.R, c.G, c.B)
			}
		}
	}
}

// DrawLine draws a 1-pixel-wide line from (x0,y0) to (x1,y1) using the
// Bresenham algorithm.
func (im *Image) DrawLine(x0, y0, x1, y1 int, c Color) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		im.SetF(x0, y0, c.R, c.G, c.B)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// DrawGradient paints a linear gradient between two colors along the given
// angle (radians, 0 = left-to-right).
func (im *Image) DrawGradient(from, to Color, angle float64) {
	ca, sa := math.Cos(angle), math.Sin(angle)
	// Project each pixel onto the gradient direction and normalize to [0,1].
	minP, maxP := math.Inf(1), math.Inf(-1)
	corners := [][2]float64{{0, 0}, {float64(im.Width - 1), 0}, {0, float64(im.Height - 1)}, {float64(im.Width - 1), float64(im.Height - 1)}}
	for _, c := range corners {
		p := c[0]*ca + c[1]*sa
		minP = math.Min(minP, p)
		maxP = math.Max(maxP, p)
	}
	span := maxP - minP
	if span <= 0 {
		span = 1
	}
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			t := (float64(x)*ca + float64(y)*sa - minP) / span
			c := from.Lerp(to, t)
			im.SetF(x, y, c.R, c.G, c.B)
		}
	}
}

// DrawStripes paints parallel stripes of two alternating colors.
// period is the stripe period in pixels, angle is the stripe normal
// direction in radians.
func (im *Image) DrawStripes(a, b Color, period, angle float64) {
	if period <= 0 {
		period = 1
	}
	ca, sa := math.Cos(angle), math.Sin(angle)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			p := float64(x)*ca + float64(y)*sa
			phase := math.Mod(p, period)
			if phase < 0 {
				phase += period
			}
			c := a
			if phase >= period/2 {
				c = b
			}
			im.SetF(x, y, c.R, c.G, c.B)
		}
	}
}

// DrawChecker paints a checkerboard pattern with the given cell size.
func (im *Image) DrawChecker(a, b Color, cell int) {
	if cell < 1 {
		cell = 1
	}
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			c := a
			if ((x/cell)+(y/cell))%2 == 1 {
				c = b
			}
			im.SetF(x, y, c.R, c.G, c.B)
		}
	}
}

// DrawSinusoid overlays a sinusoidal brightness texture with the given
// spatial frequency (cycles per image width) and orientation (radians).
// amplitude is in [0,1] and modulates the existing pixels.
func (im *Image) DrawSinusoid(frequency, angle, amplitude float64) {
	ca, sa := math.Cos(angle), math.Sin(angle)
	w := float64(im.Width)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			p := float64(x)*ca + float64(y)*sa
			mod := 1 + amplitude*math.Sin(2*math.Pi*frequency*p/w)
			r, g, b := im.At(x, y)
			im.Set(x, y, clamp8(float64(r)*mod), clamp8(float64(g)*mod), clamp8(float64(b)*mod))
		}
	}
}

// AddNoise perturbs every channel of every pixel with Gaussian noise of the
// given standard deviation (in 0..255 units).
func (im *Image) AddNoise(rng *linalg.RNG, std float64) {
	for i := range im.Pix {
		v := float64(im.Pix[i]) + rng.Normal(0, std)
		im.Pix[i] = clamp8(v)
	}
}

// DrawBlobs scatters n soft-edged discs with colors drawn around base hue
// hue±hueJitter. It is used to synthesize "natural" category imagery such as
// flowers or animals against a background.
func (im *Image) DrawBlobs(rng *linalg.RNG, n int, hue, hueJitter, minR, maxR float64) {
	for i := 0; i < n; i++ {
		cx := rng.Range(0, float64(im.Width))
		cy := rng.Range(0, float64(im.Height))
		radius := rng.Range(minR, maxR)
		h := hue + rng.Range(-hueJitter, hueJitter)
		c := FromHSV(h, rng.Range(0.5, 1), rng.Range(0.4, 1))
		im.DrawCircle(cx, cy, radius, c)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
