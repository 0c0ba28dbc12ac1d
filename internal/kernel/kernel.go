package kernel

import (
	"fmt"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// Point is a training or query sample a kernel can be evaluated on. Both the
// dense visual descriptors and the sparse log vectors satisfy it.
type Point interface {
	// Dot returns the inner product with another point of the same kind.
	Dot(other Point) float64
	// SquaredDistance returns the squared Euclidean distance to another
	// point of the same kind.
	SquaredDistance(other Point) float64
}

// Dense adapts a dense feature vector to the Point interface. A *Dense is
// the same point: it boxes into a Point without an allocation, so a trainer
// that keeps the headers of its points (the SVM schemes' training arena)
// passes them as pointers, and every path reads both forms alike (DenseOf).
type Dense linalg.Vector

// DenseOf returns the values of a dense point, held as a Dense or a *Dense.
func DenseOf(p Point) (Dense, bool) {
	switch v := p.(type) {
	case Dense:
		return v, true
	case *Dense:
		return *v, true
	}
	return nil, false
}

// Dot implements Point.
func (d Dense) Dot(other Point) float64 {
	o, ok := DenseOf(other)
	if !ok {
		panic(fmt.Sprintf("kernel: Dense.Dot with incompatible point type %T", other))
	}
	return linalg.Vector(d).Dot(linalg.Vector(o))
}

// SquaredDistance implements Point.
func (d Dense) SquaredDistance(other Point) float64 {
	o, ok := DenseOf(other)
	if !ok {
		panic(fmt.Sprintf("kernel: Dense.SquaredDistance with incompatible point type %T", other))
	}
	return linalg.Vector(d).SquaredDistance(linalg.Vector(o))
}

// Sparse adapts a sparse log vector to the Point interface.
type Sparse struct{ *sparse.Vector }

// NewSparse wraps a sparse vector as a kernel point.
func NewSparse(v *sparse.Vector) Sparse { return Sparse{v} }

// Dot implements Point.
func (s Sparse) Dot(other Point) float64 {
	o, ok := other.(Sparse)
	if !ok {
		panic(fmt.Sprintf("kernel: Sparse.Dot with incompatible point type %T", other))
	}
	return s.Vector.Dot(o.Vector)
}

// SquaredDistance implements Point.
func (s Sparse) SquaredDistance(other Point) float64 {
	o, ok := other.(Sparse)
	if !ok {
		panic(fmt.Sprintf("kernel: Sparse.SquaredDistance with incompatible point type %T", other))
	}
	return s.Vector.SquaredDistance(o.Vector)
}

// DensePoints converts a slice of dense vectors to kernel points.
func DensePoints(vs []linalg.Vector) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Dense(v)
	}
	return out
}

// SparsePoints converts a slice of sparse vectors to kernel points.
func SparsePoints(vs []*sparse.Vector) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Sparse{v}
	}
	return out
}

// Kernel is a Mercer kernel K(x,y), on one pair (Eval) or on one dense point
// against a DenseSet (EvalSet: dst[i] = K(x, set_i), len(dst) = set.Len(),
// not Eval's arithmetic: each kernel's EvalSet states what it computes).
type Kernel interface {
	Eval(x, y Point) float64
	EvalSet(x linalg.Vector, set *DenseSet, dst []float64)
}

// Linear is the kernel K(x,y) = <x,y>.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(x, y Point) float64 { return x.Dot(y) }

// RBF is the Gaussian radial basis function kernel
// K(x,y) = exp(-gamma * ||x-y||^2), the kernel used throughout the paper's
// experiments.
type RBF struct {
	Gamma float64
}

// Eval implements Kernel, with the exponential every RBF path computes.
func (k RBF) Eval(x, y Point) float64 {
	return expOne(-k.Gamma * x.SquaredDistance(y))
}

// EstimateRBFGamma returns a data-driven RBF bandwidth for a collection of
// n points, the i-th read through point: gamma = 1 / mean squared pairwise
// distance, estimated over an evenly spaced subsample of at most sample
// points (so the estimate is deterministic and cheap for large collections).
// This is the standard "mean/median distance" heuristic; applying the same
// rule to the visual and the log modality puts their decision values on
// comparable scales, which the coupled SVM's summed distances assume. A
// degenerate collection (all points identical) falls back to gamma = 1.
func EstimateRBFGamma(n int, point func(i int) Point, sample int) float64 {
	if n < 2 {
		return 1
	}
	if sample < 2 {
		sample = 2
	}
	// Evenly spaced subsample.
	step := n / sample
	if step < 1 {
		step = 1
	}
	var sub []Point
	for i := 0; i < n && len(sub) < sample; i += step {
		sub = append(sub, point(i))
	}
	var sum float64
	var count int
	for i := 0; i < len(sub); i++ {
		for j := i + 1; j < len(sub); j++ {
			sum += sub[i].SquaredDistance(sub[j])
			count++
		}
	}
	if count == 0 || sum <= 0 {
		return 1
	}
	mean := sum / float64(count)
	if mean < 1e-12 {
		return 1
	}
	return 1 / mean
}
