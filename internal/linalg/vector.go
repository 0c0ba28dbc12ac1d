// Package linalg provides the small dense linear-algebra and statistics
// toolkit used throughout the lrfcsvm library: vectors, matrices, moments,
// distance functions and a deterministic random-number helper.
//
// The package deliberately stays allocation-conscious: the matrix
// operations write into a caller-supplied destination, so the scoring scans
// reuse their buffers.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// Dot returns the inner product of v and w.
// It panics if the lengths differ; dimension agreement is a programming
// invariant in this library, not a runtime condition.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// SquaredDistance returns ||v-w||^2.
func (v Vector) SquaredDistance(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: SquaredDistance length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return s
}

// Scale returns a*v as a new vector.
func (v Vector) Scale(a float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = a * x
	}
	return out
}

// ScaleInPlace multiplies every component of v by a.
func (v Vector) ScaleInPlace(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of the components of v.
// The mean of an empty vector is 0.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Variance returns the population variance of the components of v.
func (v Vector) Variance() float64 {
	if len(v) == 0 {
		return 0
	}
	m := v.Mean()
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of the components of v.
func (v Vector) Std() float64 { return math.Sqrt(v.Variance()) }

// Skewness returns the third standardized moment of v. When the standard
// deviation is (numerically) zero the skewness is defined as 0.
func (v Vector) Skewness() float64 {
	if len(v) == 0 {
		return 0
	}
	m := v.Mean()
	sd := v.Std()
	if sd < 1e-12 {
		return 0
	}
	var s float64
	for _, x := range v {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(len(v))
}

// Equal reports whether v and w have the same length and all components are
// within tol of each other.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of the given vectors as a new vector.
func Concat(vs ...Vector) Vector {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}
