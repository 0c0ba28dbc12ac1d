package linalg

import (
	"math"
	"slices"
)

// Entropy returns the Shannon entropy (natural log) of a non-negative value
// distribution. The values are normalized to sum to one; zero-mass inputs
// yield zero entropy.
func Entropy(values []float64) float64 {
	var total float64
	for _, v := range values {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, v := range values {
		if v <= 0 {
			continue
		}
		p := v / total
		h -= p * math.Log(p)
	}
	return h
}

// ArgsortAsc returns the indices that sort xs in ascending order.
// Ties are broken by ascending index so the ordering is deterministic.
// The index tiebreak makes the comparator a total order, so any correct
// sort yields the same permutation — which is why switching between sort
// implementations here is safe, and why the generic slices sort (no
// reflect-based swapping, inlinable comparator) is used over sort.Slice.
func ArgsortAsc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if xs[a] != xs[b] {
			if xs[a] < xs[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	return idx
}
