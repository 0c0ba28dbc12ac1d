package features

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

// Dim is the dimensionality of the composite visual descriptor: 9 color
// moments + 18 edge-direction bins + 9 wavelet entropies = 36, exactly the
// feature layout described in Section 6.2 of the paper.
const Dim = ColorMomentDim + EdgeHistDim + WaveletDim

// Extractor turns images into 36-dimensional visual descriptors.
// The zero value is ready to use.
type Extractor struct{}

// Extract computes the composite descriptor of a single image.
func (e Extractor) Extract(im *imaging.Image) linalg.Vector {
	cm := ColorMoments(im)
	eh := EdgeDirectionHistogram(im)
	wt := WaveletTexture(im)
	return linalg.Concat(cm, eh, wt)
}

// ImageSource yields images by index; both dataset.Generator and the
// retrieval feature store satisfy it.
type ImageSource interface {
	NumImages() int
	Render(i int) *imaging.Image
}

// ExtractAll extracts descriptors for every image of a source, using up to
// workers goroutines (workers <= 0 selects GOMAXPROCS). The result is
// indexed by image index.
func (e Extractor) ExtractAll(src ImageSource, workers int) []linalg.Vector {
	n := src.NumImages()
	out := make([]linalg.Vector, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = e.Extract(src.Render(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Normalizer standardizes descriptors to zero mean and unit variance per
// component, using statistics estimated from a reference collection. This is
// the usual preprocessing before Euclidean ranking and RBF kernels so that
// no single feature family dominates the distance.
type Normalizer struct {
	Mean linalg.Vector
	Std  linalg.Vector
}

// FitNormalizer estimates per-component mean and standard deviation from the
// given descriptors. Components with (numerically) zero variance get a unit
// standard deviation so normalization never divides by zero.
func FitNormalizer(descriptors []linalg.Vector) (*Normalizer, error) {
	if len(descriptors) == 0 {
		return nil, fmt.Errorf("features: cannot fit a normalizer on an empty collection")
	}
	dim := len(descriptors[0])
	mean := make(linalg.Vector, dim)
	std := make(linalg.Vector, dim)
	for _, d := range descriptors {
		if len(d) != dim {
			return nil, fmt.Errorf("features: inconsistent descriptor dimensions %d and %d", dim, len(d))
		}
		for j, x := range d {
			mean[j] += x
		}
	}
	n := float64(len(descriptors))
	for j := range mean {
		mean[j] /= n
	}
	for _, d := range descriptors {
		for j, x := range d {
			diff := x - mean[j]
			std[j] += diff * diff
		}
	}
	for j := range std {
		std[j] = std[j] / n
		if std[j] < 1e-12 {
			std[j] = 1
		} else {
			std[j] = math.Sqrt(std[j])
		}
	}
	return &Normalizer{Mean: mean, Std: std}, nil
}

// Apply returns the standardized copy of d.
func (n *Normalizer) Apply(d linalg.Vector) linalg.Vector {
	out := make(linalg.Vector, len(d))
	for j, x := range d {
		out[j] = (x - n.Mean[j]) / n.Std[j]
	}
	return out
}

// ApplyAll standardizes every descriptor, returning a new slice.
func (n *Normalizer) ApplyAll(ds []linalg.Vector) []linalg.Vector {
	out := make([]linalg.Vector, len(ds))
	for i, d := range ds {
		out[i] = n.Apply(d)
	}
	return out
}
