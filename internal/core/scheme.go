// Package core implements the paper's contribution: the coupled support
// vector machine and the LRF-CSVM log-based relevance-feedback algorithm
// (Fig. 1 of the paper), together with the three comparison schemes of the
// evaluation (Euclidean ranking, RF-SVM and LRF-2SVMs).
//
// All schemes consume a QueryContext — the collection's visual descriptors,
// the per-image user-log relevance vectors, and the relevance judgments the
// user supplied in the current feedback round — and produce one relevance
// score per image; higher scores rank earlier in the returned list.
package core

import (
	"context"
	"fmt"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// LabeledExample is one image judged by the user during the current
// relevance-feedback round.
type LabeledExample struct {
	// Index is the image index in the collection.
	Index int
	// Label is +1 for relevant, -1 for irrelevant.
	Label float64
}

// QueryContext bundles everything a relevance-feedback scheme may use for
// one query: the collection representations and the user's current-feedback
// judgments. Visual descriptors are expected to be normalized (see
// features.Normalizer); log vectors come from feedbacklog.Log.
//
// Batch names the collection, and everything is read from its store: the
// size, the query's descriptor, the labeled points, every scanned row.
type QueryContext struct {
	// Visual is the un-indexed form of the collection, for callers without a
	// Batch (tests): each Rank call indexes it into a transient one. Beside a
	// Batch it is only checked to be the batch's collection
	// (CollectionBatch.startsWith); bench/ sets both, which is all that keeps
	// the pair legal, and it ends once bench/ sets a Batch alone.
	Visual []linalg.Vector
	// LogVectors is the un-indexed form of the log, for callers without a
	// LogIndex (bench/, tests): one relevance column per image, as
	// feedbacklog.Log.RelevanceVectors returns them. Each Rank call of a log
	// scheme converts it into a transient index (kernel.NewLogIndex), which
	// refuses a nil column or one of another dimension; nothing else reads
	// it. It may be nil for schemes that do not use the log (Euclidean,
	// RF-SVM), and must be when LogIndex is set.
	LogVectors []*sparse.Vector
	// LogIndex is the log indexed by session — the log's own rows — and by
	// image, as feedbacklog.Log.ExtendIndex returns it to the retrieval engine
	// and the experiments; the log schemes read the log only through it.
	// It may end before the collection (an image past its columns has no
	// judgment) or run past it (a scan never reaches those columns).
	LogIndex *kernel.LogIndex
	// Query is the index of the query image.
	Query int
	// Labeled is the set S_l of images judged in the current feedback round.
	Labeled []LabeledExample
	// Workers bounds the goroutines scoring the collection (<=0: GOMAXPROCS,
	// 1: serial); a pass of up to 1,024 rows runs on the caller whatever the
	// bound. Scores are identical for any worker count.
	Workers int
	// Batch is the indexed collection (flat visual storage, kernel
	// estimates) shared across the queries hitting it; nil makes each Rank
	// call index Visual transiently.
	Batch *CollectionBatch
	// Ctx optionally carries the caller's cancellation context. The sharded
	// scoring path checks it between shard ranges and the SMO solver checks
	// it periodically between iterations, so a cancelled or deadline-expired
	// query stops scanning (and training) early and returns the context's
	// error. Nil means never cancelled. An uncancelled context changes no
	// score: the checks are read-only and the arithmetic is untouched.
	Ctx context.Context
}

// ctxErr returns the cancellation state of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// NumImages returns the collection size.
func (ctx *QueryContext) NumImages() int {
	if ctx.Batch != nil {
		return ctx.Batch.Len()
	}
	return len(ctx.Visual)
}

// validateQuery checks what every scheme needs: one collection and a query
// image inside it.
func (ctx *QueryContext) validateQuery() error {
	n := ctx.NumImages()
	if n == 0 {
		return fmt.Errorf("core: query context has no images")
	}
	if b := ctx.Batch; b != nil && ctx.Visual != nil && !(len(ctx.Visual) == n && b.startsWith(ctx.Visual)) {
		return fmt.Errorf("core: query context's Visual (%d images) is not the collection of its Batch (%d images)", len(ctx.Visual), n)
	}
	if ctx.Query < 0 || ctx.Query >= n {
		return fmt.Errorf("core: query index %d out of range [0,%d)", ctx.Query, n)
	}
	return nil
}

// Validate checks structural consistency of the context; needLog checks its
// log too, converting LogVectors as a Rank call would.
func (ctx *QueryContext) Validate(needLog bool) error {
	_, err := ctx.validated(needLog)
	return err
}

// validated validates the context and returns it, carrying a log index when
// needLog: ctx itself when it carries one, otherwise a copy carrying
// LogVectors converted. Every scheme calls it once per Rank, so that its
// scans (step 1's and step 3's alike) and its training points share the
// index.
func (ctx *QueryContext) validated(needLog bool) (*QueryContext, error) {
	if err := ctx.validateQuery(); err != nil {
		return nil, err
	}
	n := ctx.NumImages()
	if needLog && ctx.LogIndex != nil && ctx.LogVectors != nil {
		return nil, fmt.Errorf("core: a query context carries both LogVectors and a LogIndex")
	}
	if needLog && ctx.LogIndex == nil {
		if len(ctx.LogVectors) != n {
			return nil, fmt.Errorf("core: log vectors (%d) do not cover the collection (%d images)", len(ctx.LogVectors), n)
		}
		ix, err := kernel.NewLogIndex(ctx.LogVectors)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		c := *ctx
		c.LogVectors, c.LogIndex = nil, ix
		ctx = &c
	}
	if len(ctx.Labeled) == 0 {
		return nil, fmt.Errorf("core: no labeled examples")
	}
	for _, ex := range ctx.Labeled {
		if ex.Index < 0 || ex.Index >= n {
			return nil, fmt.Errorf("core: labeled image %d out of range [0,%d)", ex.Index, n)
		}
		if ex.Label != 1 && ex.Label != -1 {
			return nil, fmt.Errorf("core: labeled image %d has label %v, want +1 or -1", ex.Index, ex.Label)
		}
	}
	return ctx, nil
}

// labeledSet returns the labeled indices as a set for quick membership tests.
func (ctx *QueryContext) labeledSet() map[int]bool {
	set := make(map[int]bool, len(ctx.Labeled))
	for _, ex := range ctx.Labeled {
		set[ex.Index] = true
	}
	return set
}

// Scheme is a retrieval scheme: it scores every image of the collection for
// the query described by the context. Higher scores are more relevant.
// RankTopAppend appends the best k images to dst (reusing dst's capacity) in
// descending score order, ties broken by ascending index — indices and
// scores bit-identical to Rank followed by TopK, for any shard size and
// worker count — streamed through bounded per-shard selection instead of one
// materialized score per image. The passes take their working memory from
// the collection batch's pooled scoring arenas and an SVM scheme trains in a
// pooled training arena (trainArena), so a steady-state caller that recycles
// its result buffer allocates only a few fixed headers per ranking — the
// scorer closures of the SVM schemes — and nothing that grows with the
// collection or the log; retrieval's TestRefineAllocations pins a whole
// Session.Refine at under 2 KB.
type Scheme interface {
	Name() string
	Rank(ctx *QueryContext) ([]float64, error)
	RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error)
}

// rangeScored is what a scheme contributes to a ranking pass, and all it
// contributes: scorer validates the context, trains whatever the scheme
// trains, and returns the pass's scoring — with what it borrowed, on an
// error too. Which ranges are scored and what is kept of the scores is the
// driver's business (scanRanges).
type rangeScored interface {
	scorer(ctx *QueryContext) (scoring, error)
}

// scoring is a ranking pass as a scheme prepares it: the collection batch,
// the function that scores one range of it (query prior included), the
// seed rows a top-K pass starts from with their scorer — LRF-CSVM's step 1
// best rows, the rows the log vouches for in LRF-2SVMs' pass, none in the
// other schemes' — and the training arena its models live in, borrowed from
// the batch until release (the SVM schemes; nil for the others), whose step
// lane LRF-CSVM's final pass reads.
type scoring struct {
	batch *CollectionBatch
	fn    rangeScorer
	seeds seedBlock
	arena *trainArena
}

// release returns the borrowed arena; the pass must not run after it.
func (s scoring) release() { s.batch.trainerPut(s.arena) }

// top streams the top k of the images cands names, appended to dst: a full
// pass from the floor of the seeds, and any pass starting with the units of
// the lane's first rows (none but LRF-CSVM's).
func (s scoring) top(ctx *QueryContext, cands CandidateSet, k int, dst []Ranked) ([]Ranked, error) {
	if s.arena != nil {
		cands.first = s.arena.lane.first
	}
	return rankTopRanges(ctx, s.batch, cands, k, dst, s.fn, s.seeds)
}

// rankScores scores every image of the collection: Scheme.Rank. It and
// rankTop take the scheme as a type parameter, not as an interface value, so
// calling them does not move a copy of the scheme's options to the heap.
func rankScores[S rangeScored](s S, ctx *QueryContext) ([]float64, error) {
	pass, err := s.scorer(ctx)
	defer pass.release()
	if err != nil {
		return nil, err
	}
	return scanScores(ctx, pass.batch, pass.fn)
}

// rankTop appends the top k of the images cands names to dst:
// Scheme.RankTopAppend over the zero CandidateSet.
func rankTop[S rangeScored](s S, ctx *QueryContext, cands CandidateSet, k int, dst []Ranked) ([]Ranked, error) {
	pass, err := s.scorer(ctx)
	defer pass.release()
	if err != nil {
		return nil, err
	}
	return pass.top(ctx, cands, k, dst)
}

// RankTop returns s's best k images in a fresh slice: s.RankTopAppend onto
// nil.
func RankTop(s Scheme, ctx *QueryContext, k int) ([]Ranked, error) {
	return s.RankTopAppend(ctx, k, nil)
}
