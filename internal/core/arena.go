package core

import (
	"context"
	"slices"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// trainArena is one pooled training arena: everything an SVM scheme's
// training allocates for one refine — the judged and drafted images and
// their labels, the training points, the solvers with their Gram matrices
// and the inversions of their log points, the models with their
// support-vector sets and weight vectors, the coupled SVM's working state
// and LRF-CSVM's step lane. Arenas live in the collection batch's one free
// list (trainerGet, trainerPut): a scheme's scorer borrows one and its
// scoring hands it back once the pass has built its answer, or the scorer
// has failed (scoring.release), so nothing trained in it outlives the
// refine. Its buffers grow to the largest refine seen and never shrink; only
// step 1's pass sizes the lane, so an RF-SVM or LRF-2SVMs arena grows none.
// What leaves a refine — LRF2SVMs.Pretrain's models,
// LRFCSVM.TrainingProblem's problem, TrainCoupled's result — is trained in
// an arena of its own that is never pooled.
type trainArena struct {
	// labeled and labels are the judged images in the context's order and
	// their labels (labeledSplit); judged is the distinct judged images,
	// ascending (sortedLabeled); costs are one modality's uniform costs.
	labeled []int
	labels  []float64
	judged  []int
	costs   []float64
	// drafted and initial are step 1's draft and its initial labels.
	drafted []int
	initial []float64
	// dense holds the headers of the visual training points, which box into
	// a kernel.Point as a *kernel.Dense without an allocation; cols holds
	// the log columns, boxed as kernel.Sparse. points are the labeled
	// points of the two modalities, then their drafted ones.
	dense  []kernel.Dense
	cols   []sparse.Vector
	points [4][]kernel.Point
	// solvers and models by slot: the visual and the log modality of the
	// labeled problem, then the coupled SVM's grown ones (trainCoupled).
	solvers []*svm.Solver
	models  []*svm.Model
	// modalities is the coupled problem; the rest is trainCoupled's.
	modalities [2]Modality
	coupled    coupledState
	// lane is LRF-CSVM's hand-off from step 1 to step 3 (stepLane).
	lane stepLane
}

// coupledState is trainCoupled's working state: the labels of every point,
// each modality's costs, unlabeled decision values and grown solver, and the
// result.
type coupledState struct {
	ys        []float64
	costs     [][]float64
	decisions [][]float64
	solvers   []*svm.Solver
	result    CoupledResult
}

// trainerGet borrows a training arena from the batch's free list.
func (b *CollectionBatch) trainerGet() *trainArena {
	b.leased.Add(1)
	return b.trainers.get()
}

// trainerPut returns a borrowed arena to the free list; a nil arena is none.
// Its headers into the collection's store and the log are cleared, so a kept
// arena holds no epoch's rows or columns through them, and its lane is
// unwritten, so the next refine reads nothing another query recorded.
func (b *CollectionBatch) trainerPut(a *trainArena) {
	if a == nil {
		return
	}
	b.leased.Add(-1)
	clear(a.dense)
	clear(a.cols)
	a.dense, a.cols = a.dense[:0], a.cols[:0]
	l := &a.lane
	l.written, l.terms, l.deferred, l.seeds, l.first = false, 0, l.deferred[:0], l.seeds[:0], l.first[:0]
	b.trainers.put(a)
}

// solver returns the arena's solver in slot i.
func (a *trainArena) solver(i int) *svm.Solver {
	a.solvers = slot(a.solvers, i)
	return a.solvers[i]
}

// model returns the arena's model in slot i.
func (a *trainArena) model(i int) *svm.Model {
	a.models = slot(a.models, i)
	return a.models[i]
}

// slot grows s to hold index i, allocating the element there on first use.
func slot[T any](s []*T, i int) []*T {
	if i >= len(s) {
		s = append(s, make([]*T, i+1-len(s))...)
	}
	if s[i] == nil {
		s[i] = new(T)
	}
	return s
}

// resize returns s with length n, reusing its backing array when it holds
// n; the contents are unspecified.
func resize[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// labeledSplit splits the context's labeled examples into parallel index and
// label slices, the representation the SVM trainers consume.
func (a *trainArena) labeledSplit(ctx *QueryContext) (indices []int, labels []float64) {
	a.labeled, a.labels = resize(a.labeled, len(ctx.Labeled)), resize(a.labels, len(ctx.Labeled))
	for i, ex := range ctx.Labeled {
		a.labeled[i], a.labels[i] = ex.Index, ex.Label
	}
	return a.labeled, a.labels
}

// sortedLabeled returns the distinct judged images, ascending.
func (a *trainArena) sortedLabeled(ctx *QueryContext) []int {
	a.judged = a.judged[:0]
	for _, ex := range ctx.Labeled {
		a.judged = append(a.judged, ex.Index)
	}
	slices.Sort(a.judged)
	a.judged = slices.Compact(a.judged)
	return a.judged
}

// visualPoints returns in dst's storage the visual descriptors of the given
// images as kernel points, views into the store, their headers kept in the
// arena.
func (a *trainArena) visualPoints(b *CollectionBatch, indices []int, dst []kernel.Point) []kernel.Point {
	from := len(a.dense)
	for _, idx := range indices {
		a.dense = append(a.dense, b.set.Point(idx))
	}
	dst = dst[:0]
	for i := range indices {
		dst = append(dst, &a.dense[from+i])
	}
	return dst
}

// logPoints returns in dst's storage the log columns of the given images as
// kernel points, views into the log index, their headers kept in the arena.
func (a *trainArena) logPoints(ctx *QueryContext, indices []int, dst []kernel.Point) []kernel.Point {
	from := len(a.cols)
	for _, idx := range indices {
		a.cols = append(a.cols, ctx.LogIndex.Column(idx))
	}
	dst = dst[:0]
	for i := range indices {
		dst = append(dst, kernel.NewSparse(&a.cols[from+i]))
	}
	return dst
}

// trainModality trains a plain SVM on the labeled examples of one modality
// in the arena's solver slot; the solver holds the model and the points'
// Gram matrix. Cancelling ctx (the query's context; may be nil) abandons the
// training.
func (a *trainArena) trainModality(slot int, ctx context.Context, points []kernel.Point, labels []float64, c float64, k kernel.Kernel) (*svm.Solver, error) {
	s := a.solver(slot)
	err := s.Reset(points, svm.Config{Kernel: k, Ctx: ctx})
	if err == nil {
		a.costs = resize(a.costs, len(points))
		for i := range a.costs {
			a.costs[i] = c
		}
		err = s.Solve(labels, a.costs)
	}
	return s, err
}
