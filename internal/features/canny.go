package features

import "math"

// EdgePoint is one pixel retained by the Canny edge detector, annotated with
// its gradient direction in radians in (-pi, pi].
type EdgePoint struct {
	X, Y      int
	Direction float64
	Magnitude float64
}

// gaussianSigma is the standard deviation of the detector's smoothing kernel.
const gaussianSigma = 1.0

// Canny runs the Canny edge detector on a grayscale plane (values in
// [0,255]) and returns the retained edge points with their gradient
// directions. The implementation follows the classical pipeline: Gaussian
// smoothing, Sobel gradients, non-maximum suppression and hysteresis
// thresholding.
func Canny(gray [][]float64) []EdgePoint {
	h := len(gray)
	if h == 0 {
		return nil
	}
	w := len(gray[0])
	if w == 0 {
		return nil
	}

	smoothed := gaussianBlur(gray, gaussianSigma)
	mag, dir := sobel(smoothed)

	// The hysteresis thresholds are fractions of the maximum gradient
	// magnitude, which adapts to image contrast and keeps strongly textured
	// images (where nearly every pixel carries gradient) from suppressing all
	// edges.
	var maxMag float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if mag[y][x] > maxMag {
				maxMag = mag[y][x]
			}
		}
	}
	low, high := 0.1*maxMag, 0.25*maxMag
	// Intensities are in [0,255]; anything below this floor is floating-point
	// residue from the blur, not a real gradient.
	const magnitudeFloor = 1e-6
	if high < magnitudeFloor {
		// A (numerically) flat image has no gradient anywhere and thus no edges.
		return nil
	}

	suppressed := nonMaxSuppress(mag, dir)
	strong, weak := classify(suppressed, low, high)
	final := hysteresis(strong, weak)

	var points []EdgePoint
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if final[y][x] {
				points = append(points, EdgePoint{X: x, Y: y, Direction: dir[y][x], Magnitude: mag[y][x]})
			}
		}
	}
	return points
}

// gaussianBlur convolves the plane with a separable Gaussian kernel.
func gaussianBlur(in [][]float64, sigma float64) [][]float64 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := -radius; i <= radius; i++ {
		//cbirlint:ignore exppurity one-time blur-kernel construction at extraction time, never on the ranking path; the σ = 1 weights are the same bits on amd64's FMA and non-FMA math.Exp paths
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		kernel[i+radius] = v
		sum += v
	}
	for i := range kernel {
		kernel[i] /= sum
	}

	h, w := len(in), len(in[0])
	tmp := newPlane(w, h)
	out := newPlane(w, h)
	// Horizontal pass with edge clamping.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc float64
			for k := -radius; k <= radius; k++ {
				xx := clampInt(x+k, 0, w-1)
				acc += in[y][xx] * kernel[k+radius]
			}
			tmp[y][x] = acc
		}
	}
	// Vertical pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc float64
			for k := -radius; k <= radius; k++ {
				yy := clampInt(y+k, 0, h-1)
				acc += tmp[yy][x] * kernel[k+radius]
			}
			out[y][x] = acc
		}
	}
	return out
}

// sobel computes gradient magnitude and direction with 3x3 Sobel operators.
func sobel(in [][]float64) (mag, dir [][]float64) {
	h, w := len(in), len(in[0])
	mag = newPlane(w, h)
	dir = newPlane(w, h)
	at := func(x, y int) float64 {
		return in[clampInt(y, 0, h-1)][clampInt(x, 0, w-1)]
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
				at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			mag[y][x] = math.Hypot(gx, gy)
			dir[y][x] = math.Atan2(gy, gx)
		}
	}
	return mag, dir
}

// nonMaxSuppress keeps only pixels that are local maxima of the gradient
// magnitude along the gradient direction.
func nonMaxSuppress(mag, dir [][]float64) [][]float64 {
	h, w := len(mag), len(mag[0])
	out := newPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m := mag[y][x]
			if m == 0 {
				continue
			}
			// Quantize the direction to one of four neighbor axes.
			angle := dir[y][x]
			if angle < 0 {
				angle += math.Pi
			}
			var dx, dy int
			switch {
			case angle < math.Pi/8 || angle >= 7*math.Pi/8:
				dx, dy = 1, 0
			case angle < 3*math.Pi/8:
				dx, dy = 1, 1
			case angle < 5*math.Pi/8:
				dx, dy = 0, 1
			default:
				dx, dy = -1, 1
			}
			n1 := magAt(mag, x+dx, y+dy)
			n2 := magAt(mag, x-dx, y-dy)
			if m >= n1 && m >= n2 {
				out[y][x] = m
			}
		}
	}
	return out
}

func magAt(mag [][]float64, x, y int) float64 {
	if y < 0 || y >= len(mag) || x < 0 || x >= len(mag[0]) {
		return 0
	}
	return mag[y][x]
}

func classify(mag [][]float64, low, high float64) (strong, weak [][]bool) {
	h, w := len(mag), len(mag[0])
	strong = newBoolPlane(w, h)
	weak = newBoolPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if mag[y][x] <= 0 {
				continue
			}
			switch {
			case mag[y][x] >= high:
				strong[y][x] = true
			case mag[y][x] >= low:
				weak[y][x] = true
			}
		}
	}
	return strong, weak
}

// hysteresis promotes weak edge pixels that are 8-connected to a strong
// pixel, using a BFS flood from the strong seeds.
func hysteresis(strong, weak [][]bool) [][]bool {
	h, w := len(strong), len(strong[0])
	out := newBoolPlane(w, h)
	var queue [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if strong[y][x] {
				out[y][x] = true
				queue = append(queue, [2]int{x, y})
			}
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				x, y := p[0]+dx, p[1]+dy
				if x < 0 || x >= w || y < 0 || y >= h {
					continue
				}
				if weak[y][x] && !out[y][x] {
					out[y][x] = true
					queue = append(queue, [2]int{x, y})
				}
			}
		}
	}
	return out
}

func newPlane(w, h int) [][]float64 {
	out := make([][]float64, h)
	buf := make([]float64, w*h)
	for y := range out {
		out[y] = buf[y*w : (y+1)*w]
	}
	return out
}

func newBoolPlane(w, h int) [][]bool {
	out := make([][]bool, h)
	buf := make([]bool, w*h)
	for y := range out {
		out[y] = buf[y*w : (y+1)*w]
	}
	return out
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
