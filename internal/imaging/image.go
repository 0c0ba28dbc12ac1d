// Package imaging provides the minimal raster-image substrate the CBIR
// pipeline needs: an RGB image type, color-space conversions (HSV,
// grayscale), procedural drawing primitives used by the synthetic dataset
// generator, and a PPM encoder for inspecting generated images on disk.
//
// The paper extracts all visual features from real pixels (HSV color
// moments, a Canny edge-direction histogram and Daubechies-4 wavelet
// entropies); this package supplies those pixels.
package imaging

import (
	"fmt"
	"math"
)

// Image is a dense 8-bit-per-channel RGB raster stored row-major.
type Image struct {
	Width, Height int
	// Pix holds the pixel data as R,G,B triples, row by row.
	Pix []uint8
}

// New returns a black image of the given size.
func New(width, height int) *Image {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", width, height))
	}
	return &Image{Width: width, Height: height, Pix: make([]uint8, width*height*3)}
}

// In reports whether (x,y) lies inside the image bounds.
func (im *Image) In(x, y int) bool {
	return x >= 0 && x < im.Width && y >= 0 && y < im.Height
}

// At returns the RGB value at (x,y). Out-of-bounds reads return black.
func (im *Image) At(x, y int) (r, g, b uint8) {
	if !im.In(x, y) {
		return 0, 0, 0
	}
	i := (y*im.Width + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set assigns the RGB value at (x,y). Out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, r, g, b uint8) {
	if !im.In(x, y) {
		return
	}
	i := (y*im.Width + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// SetF assigns an RGB value given as floats in [0,1], clamping as needed.
func (im *Image) SetF(x, y int, r, g, b float64) {
	im.Set(x, y, clamp8(r*255), clamp8(g*255), clamp8(b*255))
}

// Fill paints the entire image with the given color.
func (im *Image) Fill(r, g, b uint8) {
	for i := 0; i < len(im.Pix); i += 3 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
	}
}

// Gray returns the luminance plane of the image as float64 values in
// [0,255], using the Rec. 601 luma weights.
func (im *Image) Gray() [][]float64 {
	out := make([][]float64, im.Height)
	buf := make([]float64, im.Width*im.Height)
	for y := 0; y < im.Height; y++ {
		out[y] = buf[y*im.Width : (y+1)*im.Width]
		for x := 0; x < im.Width; x++ {
			r, g, b := im.At(x, y)
			out[y][x] = 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)
		}
	}
	return out
}

// HSV returns three planes (hue in [0,360), saturation and value in [0,1])
// for the image.
func (im *Image) HSV() (h, s, v [][]float64) {
	h = makePlane(im.Width, im.Height)
	s = makePlane(im.Width, im.Height)
	v = makePlane(im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			r, g, b := im.At(x, y)
			hh, ss, vv := RGBToHSV(r, g, b)
			h[y][x], s[y][x], v[y][x] = hh, ss, vv
		}
	}
	return h, s, v
}

func makePlane(w, hgt int) [][]float64 {
	out := make([][]float64, hgt)
	buf := make([]float64, w*hgt)
	for y := range out {
		out[y] = buf[y*w : (y+1)*w]
	}
	return out
}

// RGBToHSV converts an 8-bit RGB triple to HSV with hue in [0,360) and
// saturation/value in [0,1].
func RGBToHSV(r8, g8, b8 uint8) (h, s, v float64) {
	r := float64(r8) / 255
	g := float64(g8) / 255
	b := float64(b8) / 255
	maxc := math.Max(r, math.Max(g, b))
	minc := math.Min(r, math.Min(g, b))
	v = maxc
	delta := maxc - minc
	if maxc > 0 {
		s = delta / maxc
	}
	if delta == 0 {
		return 0, s, v
	}
	switch maxc {
	case r:
		h = 60 * math.Mod((g-b)/delta, 6)
	case g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	return h, s, v
}

// HSVToRGB converts hue in [0,360), saturation and value in [0,1] to an
// 8-bit RGB triple.
func HSVToRGB(h, s, v float64) (r, g, b uint8) {
	h = math.Mod(h, 360)
	if h < 0 {
		h += 360
	}
	s = clamp01(s)
	v = clamp01(v)
	c := v * s
	x := c * (1 - math.Abs(math.Mod(h/60, 2)-1))
	m := v - c
	var rf, gf, bf float64
	switch {
	case h < 60:
		rf, gf, bf = c, x, 0
	case h < 120:
		rf, gf, bf = x, c, 0
	case h < 180:
		rf, gf, bf = 0, c, x
	case h < 240:
		rf, gf, bf = 0, x, c
	case h < 300:
		rf, gf, bf = x, 0, c
	default:
		rf, gf, bf = c, 0, x
	}
	return clamp8((rf + m) * 255), clamp8((gf + m) * 255), clamp8((bf + m) * 255)
}

func clamp8(x float64) uint8 {
	if x < 0 {
		return 0
	}
	if x > 255 {
		return 255
	}
	return uint8(x + 0.5)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
