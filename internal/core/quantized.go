package core

import (
	"slices"

	"lrfcsvm/internal/kernel"
)

// This file is the quantized scan of the Euclidean scheme: a full approximate
// pass over the int8 shadow copy of the collection picks an oversampled
// candidate pool, and the pool is re-scored by the exact candidate-restricted
// pass. The approximate distances decide only which images survive into the
// pool — every returned score comes from the exact scorer, bit-identical to
// the exhaustive RankTop score of the same image.

// DefaultQuantizedOversample is the survivor multiplier used when a caller
// passes oversample <= 0: the approximate pass keeps the top k*oversample
// images for exact re-scoring. 4 holds recall@20 above 0.99 on the
// synthetic evaluation collections (TestQuantizedLaneRecallAndMAP) with the exact
// re-score still touching only a small fraction of the collection.
const DefaultQuantizedOversample = 4

// RankTopQuantized ranks by exact (negative) Euclidean distance the images
// an approximate int8 scan selects: the whole collection is scanned over
// the batch's quantized shadow copy, the k*oversample images with the
// smallest approximate distance survive (oversample <= 0 selects
// DefaultQuantizedOversample), and the survivors are re-scored exactly —
// appending the top k to dst with scores bit-identical to RankTopAppend's.
// Survivorship is approximate: an image whose exact rank is within the top
// k can be missed when its approximate distance falls outside the
// oversampled pool, which the oversampling margin makes rare (the recall
// floor is pinned by the evaluation tests).
func (e Euclidean) RankTopQuantized(ctx *QueryContext, k, oversample int, dst []Ranked) ([]Ranked, error) {
	if err := ctx.validateQuery(); err != nil {
		return nil, err
	}
	if oversample <= 0 {
		oversample = DefaultQuantizedOversample
	}
	b := ctx.collectionBatch()
	n := b.VisualSet().Len()
	k = max(0, min(k, n))
	m := k * oversample
	if m > n || m/oversample != k { // the product exceeds n, or overflowed
		m = n
	}

	qs := b.QuantizedVisualSet()
	q := b.queryVector(ctx)
	pool, err := rankTopRanges(ctx, b, CandidateSet{}, m, nil, func(_ *rankScratch, _ *kernel.DenseSet, lo int, approx []float64) {
		qs.ApproxSquaredDistances(q, lo, approx)
		for i, d := range approx {
			// Negated: the pass keeps the highest scores, and the survivors
			// are the smallest approximate distances.
			approx[i] = -d
		}
	}, seedBlock{})
	if err != nil {
		return nil, err
	}
	survivors := make([]int32, len(pool))
	for i, r := range pool {
		survivors[i] = int32(r.Index)
	}
	slices.Sort(survivors)

	// TailStart = n: no always-exact tail, the survivor list is the whole
	// candidate set. The exact pass re-scores each survivor with the
	// exhaustive scan's arithmetic.
	return e.RankTopCandidates(ctx, CandidateSet{Lists: [][]int32{survivors}, TailStart: n}, k, dst)
}
