package core

import (
	"slices"

	"lrfcsvm/internal/kernel"
)

// This file is the bounded selection substrate of the streaming query path:
// a fixed-capacity selector over the descending-score, ascending-index total
// order. Selecting the top K of N scores costs O(N log K) and touches no
// memory beyond the K kept candidates, versus the O(N log N) full argsort it
// replaces; because the order is strict (indices are unique), the selected
// set and its sorted order are unique — independent of insertion order, shard
// boundaries and worker scheduling — and bit-identical to the first K entries
// of a full stable descending argsort.

// Ranked is one scored image of a (top-K) ranking.
type Ranked struct {
	Index int
	Score float64
}

// rankedBefore reports whether candidate a ranks strictly before candidate b
// in the descending-score, ascending-index total order. It is the single
// comparator of the selection path; every sort and heap below must agree
// with it.
func rankedBefore(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// topKSelector keeps the best k candidates seen so far, organized as a
// min-heap whose root is the worst kept candidate (so a new candidate only
// needs one comparison against the root once the selector is full). The
// zero value is unusable; call reset first. Selectors are reused across
// queries through the collection batch's scratch pool.
type topKSelector struct {
	k int
	h []Ranked
}

// reset prepares the selector to keep the best k candidates, reusing the
// candidate storage.
func (s *topKSelector) reset(k int) {
	s.k = k
	if cap(s.h) < k {
		s.h = make([]Ranked, 0, k)
	} else {
		s.h = s.h[:0]
	}
}

// push offers one candidate.
func (s *topKSelector) push(index int, score float64) {
	c := Ranked{Index: index, Score: score}
	if len(s.h) < s.k {
		s.h = append(s.h, c)
		s.siftUp(len(s.h) - 1)
		return
	}
	// Full: the candidate must beat the current worst to enter.
	if !rankedBefore(c, s.h[0]) {
		return
	}
	s.h[0] = c
	s.siftDown(0, len(s.h))
}

// admits reports whether push would keep a candidate; it inlines, so a
// stream of rows calls push only for a row that enters.
func (s *topKSelector) admits(index int, score float64) bool {
	return len(s.h) < s.k || rankedBefore(Ranked{Index: index, Score: score}, s.h[0])
}

// merge offers every kept candidate of another selector.
func (s *topKSelector) merge(o *topKSelector) {
	for _, c := range o.h {
		s.push(c.Index, c.Score)
	}
}

// drain appends the kept candidates to dst in ranking order (best first) and
// empties the selector. It sorts in place with a hand-rolled heapsort over
// the existing heap (each extraction moves the worst remaining candidate to
// the shrinking tail, leaving the array best-first) — no reflection, no
// closure, no allocation beyond dst's own growth. The selector must be
// reset before reuse.
func (s *topKSelector) drain(dst []Ranked) []Ranked {
	for n := len(s.h) - 1; n > 0; n-- {
		s.h[0], s.h[n] = s.h[n], s.h[0]
		s.siftDown(0, n)
	}
	dst = append(dst, s.h...)
	s.h = s.h[:0]
	return dst
}

// heapWorse reports whether candidate i is worse than candidate j (the
// min-heap invariant direction: the root is the worst kept candidate).
func (s *topKSelector) heapWorse(i, j int) bool { return rankedBefore(s.h[j], s.h[i]) }

func (s *topKSelector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapWorse(i, parent) {
			return
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

// siftDown restores the heap invariant for the first n elements from
// position i.
func (s *topKSelector) siftDown(i, n int) {
	for {
		worst := i
		if l := 2*i + 1; l < n && s.heapWorse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && s.heapWorse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		s.h[i], s.h[worst] = s.h[worst], s.h[i]
		i = worst
	}
}

// unlabeledSelector is the bounded selection of step 1 of Fig. 1, the
// log-assisted heuristic: the presumed-positive half of the N' unlabeled
// points is drawn from the images that carry log information (at least one
// recorded judgment), best combined score first, and filled from the global
// ranking when that pool runs dry; the presumed-negative half is the global
// minimum of the combined score. The paper motivates the selection as
// "assisted by both the low-level visual information ... and the log
// information of user feedback" [Hoi & Lyu, ACM-MM'04]: log-covered positives
// keep their inferred labels accurate (they reflect real user judgments) and
// teach the visual SVM the category's other visual modes.
//
// Three selectors of capacity <= N' hold everything the heuristic can draft:
// the half best log-covered unlabeled images, the half best overall (the
// fill; at most half of them are drafted already) and the N' worst (at most
// half of them are drafted positives). Their order is strict, so the
// selection does not depend on how the collection is cut into ranges. Over
// a log that covers no image it is the paper's max/min draft (SelectMaxMin).
// A fourth, top, keeps the seedRows best images of all, judged ones
// included: the rows step 3 starts from (seeds).
type unlabeledSelector struct {
	half, num     int
	covered, best topKSelector
	// worst keeps (-index, -score): negation is exact and turns "smallest
	// score first, ties by descending index" into the one selection order.
	worst topKSelector
	top   topKSelector
	buf   []Ranked
}

// seedRows is how many seed rows a seeded top-K pass scores before its pass
// to start from a floor (rankTopRanges): step 1's best rows in LRF-CSVM's
// step 3, the judged positives and the rows the log vouches for beside them
// in LRF-2SVMs' pass (vouchedSeeds). It is more than the 20 results a refine
// returns, and half a 64-row tile of work. EXPERIMENTS.md "Step 3 starts
// from step 1's best rows" measures 20, 32, 64 and 128.
const seedRows = 32

// reset prepares the selector to draft num unlabeled points.
func (s *unlabeledSelector) reset(num int) {
	s.num = num
	s.half = num / 2
	if s.half == 0 {
		s.half = 1
	}
	s.covered.reset(s.half)
	s.best.reset(s.half)
	s.worst.reset(num)
	s.top.reset(seedRows)
}

// consume offers the combined scores of the images [lo, lo+len(scores)).
// labeled lists the judged images, ascending and distinct; they are never
// drafted. log tells which images the log covers.
func (s *unlabeledSelector) consume(lo int, scores []float64, labeled []int, log *kernel.LogIndex) {
	next, _ := slices.BinarySearch(labeled, lo)
	for i, v := range scores {
		idx := lo + i
		if s.top.admits(idx, v) {
			s.top.push(idx, v)
		}
		if next < len(labeled) && labeled[next] == idx {
			next++
			continue
		}
		// A row is offered to a selector only when it enters, and the log
		// is asked only about a row that would enter the covered pool.
		if s.covered.admits(idx, v) && log.Covered(idx) {
			s.covered.push(idx, v)
		}
		if s.best.admits(idx, v) {
			s.best.push(idx, v)
		}
		if s.worst.admits(-idx, -v) {
			s.worst.push(-idx, -v)
		}
	}
}

// merge offers everything another selector kept.
func (s *unlabeledSelector) merge(o *unlabeledSelector) {
	s.covered.merge(&o.covered)
	s.best.merge(&o.best)
	s.worst.merge(&o.worst)
	s.top.merge(&o.top)
}

// seeds appends the indices of the best rows kept to dst, in heap order, and
// empties that selector.
func (s *unlabeledSelector) seeds(dst []int) []int {
	for _, c := range s.top.h {
		dst = append(dst, c.Index)
	}
	s.top.h = s.top.h[:0]
	return dst
}

// drain empties the selector into the drafted images, in training order —
// log-covered positives, fill, negatives worst first — and their labels,
// appended to indices and initialLabels, which must be empty.
func (s *unlabeledSelector) drain(indices []int, initialLabels []float64) ([]int, []float64) {
	draft := func(limit int, sign int, label float64) {
		for _, c := range s.buf {
			if len(indices) >= limit {
				return
			}
			if idx := sign * c.Index; !slices.Contains(indices, idx) {
				indices = append(indices, idx)
				initialLabels = append(initialLabels, label)
			}
		}
	}
	s.buf = s.covered.drain(s.buf[:0])
	draft(s.half, 1, 1)
	s.buf = s.best.drain(s.buf[:0])
	draft(s.half, 1, 1)
	s.buf = s.worst.drain(s.buf[:0])
	draft(s.num, -1, -1)
	return indices, initialLabels
}

// TopK returns the indices of the k highest-scoring images in descending
// score order (ties broken by ascending index, exactly as a stable
// descending argsort would). k larger than the collection returns every
// image; k <= 0 returns none. Selection is O(n log k).
func TopK(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return []int{}
	}
	var sel topKSelector
	sel.reset(k)
	for i, sc := range scores {
		sel.push(i, sc)
	}
	ranked := sel.drain(make([]Ranked, 0, k))
	out := make([]int, len(ranked))
	for i, r := range ranked {
		out[i] = r.Index
	}
	return out
}
