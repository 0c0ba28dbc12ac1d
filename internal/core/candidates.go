package core

import (
	"context"
	"slices"

	"lrfcsvm/internal/kernel"
)

// This file says where the ranges of a scoring pass come from. A pass scores
// an explicit candidate set — the member lists of probed IVF cells plus an
// always-scanned "unindexed tail" of images appended after the index was
// built — and the exhaustive scan is the candidate set that is all tail.
// Candidates are grouped into maximal contiguous runs inside their shards and
// scored through the same range scorers on the same memory whatever set
// names them, so the score of every candidate is bit-identical to what the
// exhaustive scan gives it: pruning decides which images are considered,
// never how the considered images are ordered.

// CandidateSet names the images a ranking pass considers. The zero value
// names every image.
type CandidateSet struct {
	// Lists holds groups of global image indices, each strictly ascending.
	// The groups must be pairwise disjoint and every index must lie in
	// [0, TailStart) — the IVF cell member lists satisfy both by
	// construction (cells partition the indexed prefix).
	Lists [][]int32
	// TailStart is the start of the unindexed tail: every image in
	// [TailStart, n) is always scored exactly, whether or not any list
	// mentions it. Images appended after an index build land here, so a
	// pruned query can never miss a freshly ingested image.
	TailStart int
	// first lists rows whose tail units the pass claims before the other
	// tail units: an order, not a membership (LRF-CSVM's step 3 starts with
	// the query and the drafted positives, so the top-K floor rises early).
	first []int
}

// scanPass is one scoring pass cut into independent work units, each a
// sequence of ranges confined to a single shard (so every scorer call reads
// one cache-local slab): one unit per candidate list, then the tail's shards
// cut into perShard chunks of chunk rows, a worker's share of the tail within
// [minUnitRows, shard size], so a tail of up to minUnitRows rows is one unit.
// The queue hands out the lists, then the tail units holding the rows of
// CandidateSet.first, then the other tail units, each ascending (claim).
type scanPass struct {
	set   *kernel.ShardedSet
	lists [][]int32
	// tailLo is the first row of the tail and firstShard the shard holding it.
	tailLo, firstShard int
	chunk, perShard    int
	// first lists the tail units claimed first, ascending and distinct,
	// numbered from the first tail unit.
	first []int
	// units counts the work units and workers the goroutines that claim them.
	units, workers int

	stdctx context.Context
	fn     rangeScorer
	sink   rangeSink
}

// minUnitRows is the fewest rows a tail unit holds but for a shard's
// remainder: half a default shard. A goroutine spawned while its spawner
// works on starts 11–58 µs late at best, and once the process has idled half
// of them start only when the spawner blocks (the hand-off probe in
// EXPERIMENTS.md). An SVM pass scores a row in 0.2–0.5 µs, so a unit pays for
// the hand-off only at a few hundred µs of work, about a thousand rows: the
// floor is that cost in rows, not any collection's size.
const minUnitRows = 1024

// newScanPass cuts the pass into units, collecting the units of
// cands.first's rows into units (reused storage).
func newScanPass(ctx *QueryContext, set *kernel.ShardedSet, cands CandidateSet, fn rangeScorer, sink rangeSink, units []int) scanPass {
	n, ss := set.Len(), set.ShardSize()
	tailLo := min(max(cands.TailStart, 0), n)
	p := scanPass{set: set, lists: cands.Lists, tailLo: tailLo, firstShard: tailLo / ss, stdctx: ctx.Ctx, fn: fn, sink: sink}
	workers := ctx.workers()
	p.chunk = min(max((n-tailLo+workers-1)/workers, minUnitRows), ss)
	p.perShard = (min(ss, n) + p.chunk - 1) / p.chunk
	p.units = len(p.lists)
	if tailLo < n {
		p.units += (set.NumShards() - p.firstShard) * p.perShard
	}
	p.workers = min(workers, p.units)
	for _, r := range cands.first {
		if r >= tailLo && r < n {
			si := r / ss
			units = append(units, (si-p.firstShard)*p.perShard+(r-set.ShardStart(si))/p.chunk)
		}
	}
	slices.Sort(units)
	p.first = slices.Compact(units)
	return p
}

// claim maps the queue's t-th claim to a unit: the lists, then the units of
// p.first, then the u-th of the tail units p.first does not name.
func (p *scanPass) claim(t int) int {
	u := t - len(p.lists)
	if u < 0 || len(p.first) == 0 {
		return t
	}
	if u < len(p.first) {
		return len(p.lists) + p.first[u]
	}
	u -= len(p.first)
	for _, f := range p.first {
		if f <= u {
			u++
		}
	}
	return len(p.lists) + u
}

// unit scores work unit t through the arena sc: the maximal runs of
// consecutive indices of a candidate list — a dense list costs the same
// per-point work as the exhaustive scan, a sparse one degrades to per-point
// calls without ever copying point data — or one chunk of a tail shard.
func (p *scanPass) unit(sc *rankScratch, t int) {
	ss := p.set.ShardSize()
	if t < len(p.lists) {
		for list := p.lists[t]; len(list) > 0; {
			lo := int(list[0])
			run, room := 1, ss-lo%ss
			for run < len(list) && run < room && int(list[run]) == lo+run {
				run++
			}
			p.score(sc, lo, lo+run)
			list = list[run:]
		}
		return
	}
	t -= len(p.lists)
	si := p.firstShard + t/p.perShard
	lo := p.set.ShardStart(si) + t%p.perShard*p.chunk
	hi := min(lo+p.chunk, p.set.ShardStart(si)+p.set.Shard(si).Len())
	if lo = max(lo, p.tailLo); lo < hi {
		p.score(sc, lo, hi)
	}
}

// RankTopCandidates ranks only the images named by cands — probed IVF cell
// members plus the always-exact unindexed tail — by exact (negative)
// Euclidean distance to the query, appending the top k to dst. Every
// returned score is bit-identical to the exhaustive RankTop score of the
// same image; only membership in the considered set is approximate.
func (s Euclidean) RankTopCandidates(ctx *QueryContext, cands CandidateSet, k int, dst []Ranked) ([]Ranked, error) {
	return rankTop(s, ctx, cands, k, dst)
}
