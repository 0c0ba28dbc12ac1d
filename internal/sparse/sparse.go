// Package sparse implements the sparse vectors used to represent user-log
// relevance columns. Each image's log vector r_i has one component per log
// session, valued +1 (judged relevant in that session), -1 (judged
// irrelevant) or 0 (not shown in that session); with a few hundred sessions
// and ~20 judged images per session the columns are overwhelmingly zero, so
// a sparse representation keeps the kernel evaluations of the log-side SVM
// cheap.
package sparse

import (
	"fmt"
	"sort"

	"lrfcsvm/internal/linalg"
)

// Entry is one non-zero component of a sparse vector.
type Entry struct {
	Index int
	Value float64
}

// Vector is a sparse vector stored as index-sorted non-zero entries.
// The zero value is an empty vector of dimension 0.
type Vector struct {
	// Dim is the logical dimensionality of the vector.
	Dim int
	// Entries holds the non-zero components sorted by ascending index.
	Entries []Entry
}

// New returns an empty sparse vector with the given dimensionality.
func New(dim int) *Vector {
	if dim < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %d", dim))
	}
	return &Vector{Dim: dim}
}

// FromDense converts a dense vector, dropping zero components.
func FromDense(d linalg.Vector) *Vector {
	v := New(len(d))
	for i, x := range d {
		if x != 0 {
			v.Entries = append(v.Entries, Entry{Index: i, Value: x})
		}
	}
	return v
}

// NNZ returns the number of stored non-zero components.
func (v *Vector) NNZ() int { return len(v.Entries) }

// Set assigns value at index, replacing an existing entry, inserting a new
// one, or removing the entry when value is zero.
func (v *Vector) Set(index int, value float64) {
	if index < 0 || index >= v.Dim {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", index, v.Dim))
	}
	pos := sort.Search(len(v.Entries), func(i int) bool { return v.Entries[i].Index >= index })
	exists := pos < len(v.Entries) && v.Entries[pos].Index == index
	switch {
	case value == 0 && exists:
		v.Entries = append(v.Entries[:pos], v.Entries[pos+1:]...)
	case value == 0:
		// nothing to do
	case exists:
		v.Entries[pos].Value = value
	default:
		v.Entries = append(v.Entries, Entry{})
		copy(v.Entries[pos+1:], v.Entries[pos:])
		v.Entries[pos] = Entry{Index: index, Value: value}
	}
}

// At returns the component at index (0 for absent entries).
func (v *Vector) At(index int) float64 {
	if index < 0 || index >= v.Dim {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", index, v.Dim))
	}
	pos := sort.Search(len(v.Entries), func(i int) bool { return v.Entries[i].Index >= index })
	if pos < len(v.Entries) && v.Entries[pos].Index == index {
		return v.Entries[pos].Value
	}
	return 0
}

// Dot returns the inner product of v and w: the products of the matched
// entries, each rounded on its own (so no build fuses it into the addition),
// added in ascending index order from +0. Vectors of different
// dimensionality cannot be compared and cause a panic.
func (v *Vector) Dot(w *Vector) float64 {
	if v.Dim != w.Dim {
		panic(fmt.Sprintf("sparse: Dot dimension mismatch %d != %d", v.Dim, w.Dim))
	}
	var s float64
	i, j := 0, 0
	for i < len(v.Entries) && j < len(w.Entries) {
		a, b := v.Entries[i], w.Entries[j]
		switch {
		case a.Index == b.Index:
			s += float64(a.Value * b.Value)
			i++
			j++
		case a.Index < b.Index:
			i++
		default:
			j++
		}
	}
	return s
}

// SquaredNorm returns ||v||^2.
func (v *Vector) SquaredNorm() float64 {
	var s float64
	for _, e := range v.Entries {
		s += float64(e.Value * e.Value)
	}
	return s
}

// SquaredDistance returns ||v-w||^2.
func (v *Vector) SquaredDistance(w *Vector) float64 {
	// ||v-w||^2 = ||v||^2 + ||w||^2 - 2<v,w>; cheaper than merging twice.
	// Each product is rounded on its own, so no build fuses it.
	d := v.SquaredNorm() + w.SquaredNorm() - float64(2*v.Dot(w))
	if d < 0 {
		// guard against tiny negative values from cancellation
		return 0
	}
	return d
}

// ToDense converts v to a dense vector.
func (v *Vector) ToDense() linalg.Vector {
	out := make(linalg.Vector, v.Dim)
	for _, e := range v.Entries {
		out[e.Index] = e.Value
	}
	return out
}

// Equal reports whether v and w have the same dimension and the same
// components within tol.
func (v *Vector) Equal(w *Vector, tol float64) bool {
	if v.Dim != w.Dim {
		return false
	}
	return v.ToDense().Equal(w.ToDense(), tol)
}
