package features

import (
	"math"

	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

// EdgeHistDim is the dimensionality of the edge-direction histogram:
// 18 bins of 20 degrees each, covering [0,360) gradient directions.
const EdgeHistDim = 18

// EdgeDirectionHistogram computes the 18-bin edge-direction histogram of the
// image, as in the paper: the image is converted to grayscale, Canny edges
// are extracted, and the gradient direction of every retained edge pixel is
// quantized into 20-degree bins. The histogram is normalized by the number
// of edge pixels so image size does not affect the descriptor; an image with
// no detected edges yields the zero vector.
func EdgeDirectionHistogram(im *imaging.Image) linalg.Vector {
	points := Canny(im.Gray())
	hist := make(linalg.Vector, EdgeHistDim)
	if len(points) == 0 {
		return hist
	}
	binWidth := 2 * math.Pi / EdgeHistDim
	for _, p := range points {
		// Map direction from (-pi,pi] to [0,2pi).
		d := p.Direction
		if d < 0 {
			d += 2 * math.Pi
		}
		bin := int(d / binWidth)
		if bin >= EdgeHistDim {
			bin = EdgeHistDim - 1
		}
		hist[bin]++
	}
	hist.ScaleInPlace(1 / float64(len(points)))
	return hist
}
