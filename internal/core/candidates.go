package core

import (
	"context"

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
}

// scanPass is one scoring pass cut into independent work units, each a
// sequence of ranges confined to a single shard (so every scorer call reads
// one cache-local slab): one unit per candidate list, then the tail's shards
// cut into perShard chunks of chunk rows, so every worker has work even when
// the whole tail fits in one shard.
type scanPass struct {
	set   *kernel.ShardedSet
	lists [][]int32
	// tailLo is the first row of the tail and firstShard the shard holding it.
	tailLo, firstShard int
	chunk, perShard    int
	// units counts the work units and workers the goroutines that claim them.
	units, workers int

	stdctx context.Context
	fn     rangeScorer
	sink   rangeSink
}

func newScanPass(ctx *QueryContext, set *kernel.ShardedSet, cands CandidateSet, fn rangeScorer, sink rangeSink) scanPass {
	n, ss := set.Len(), set.ShardSize()
	tailLo := min(max(cands.TailStart, 0), n)
	p := scanPass{set: set, lists: cands.Lists, tailLo: tailLo, firstShard: tailLo / ss, stdctx: ctx.Ctx, fn: fn, sink: sink}
	workers := ctx.workers()
	p.chunk = max(1, min((n-tailLo+workers-1)/workers, ss))
	p.perShard = (min(ss, n) + p.chunk - 1) / p.chunk
	p.units = len(p.lists)
	if tailLo < n {
		p.units += (set.NumShards() - p.firstShard) * p.perShard
	}
	p.workers = min(workers, p.units)
	return p
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
