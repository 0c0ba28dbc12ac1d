// Package svm implements a soft-margin support vector machine trained with
// sequential minimal optimization (SMO), replacing the LIBSVM dependency the
// paper's implementation modified.
//
// Two features are essential for the coupled SVM of the paper and drive the
// design here:
//
//   - per-sample cost upper bounds C_i, so that the unlabeled transductive
//     points can be weighted by rho*C while the labeled points keep cost C
//     (Eq. 1 of the paper), and
//   - access to the hinge slack xi_i of every training point after training,
//     which the LRF-CSVM label-correction loop inspects to decide which
//     unlabeled labels to flip.
//
// The solver follows the standard dual formulation
//
//	min_alpha  1/2 alpha' Q alpha - e' alpha
//	s.t.       y' alpha = 0,  0 <= alpha_i <= C_i
//
// with Q_ij = y_i y_j K(x_i,x_j), using maximal-violating-pair working-set
// selection from a zero start and a kernel row cache that keeps every Gram
// row it has computed.
package svm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// Problem is a training set: points, binary labels in {-1,+1} and a
// per-sample cost upper bound.
type Problem struct {
	Points []kernel.Point
	Labels []float64
	C      []float64
}

// NewProblem builds a problem with a uniform cost C for every sample.
func NewProblem(points []kernel.Point, labels []float64, c float64) Problem {
	cs := make([]float64, len(points))
	for i := range cs {
		cs[i] = c
	}
	return Problem{Points: points, Labels: labels, C: cs}
}

// Validate checks structural consistency of the problem.
func (p Problem) Validate() error {
	if len(p.Points) == 0 {
		return errors.New("svm: empty training set")
	}
	if len(p.Labels) != len(p.Points) || len(p.C) != len(p.Points) {
		return fmt.Errorf("svm: inconsistent problem sizes: %d points, %d labels, %d costs",
			len(p.Points), len(p.Labels), len(p.C))
	}
	for i, y := range p.Labels {
		if y != 1 && y != -1 {
			return fmt.Errorf("svm: label %d is %v, want +1 or -1", i, y)
		}
	}
	for i, c := range p.C {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("svm: cost %d is %v, want a positive finite value", i, c)
		}
	}
	return nil
}

// Config controls the solver.
type Config struct {
	// Kernel is the Mercer kernel; required.
	Kernel kernel.Kernel
	// MaxIterations bounds the number of SMO pair updates. Zero selects
	// 100 * n + 10000, generous for the small problems relevance feedback
	// produces.
	MaxIterations int
	// SharedCache, when non-nil, replaces the solver's private kernel row
	// cache. It must be built with the same kernel over exactly the
	// problem's points in the same order. Kernel values depend only on the
	// points — never on labels or costs — so one cache can serve every
	// retraining of the coupled SVM's annealing loop over a fixed point
	// set. The cache is not safe for concurrent use; callers sharing it
	// must train sequentially. A private cache and a shared one compute the
	// same rows (for the Linear kernel over sparse points, through the
	// points inverted by session once per cache; see kernel.Cache).
	SharedCache *kernel.Cache
	// OmitSupportVectors leaves SupportPoints/Coefficients of the returned
	// model empty; Alphas, Bias and the solver diagnostics are still
	// populated. The Decision* methods are unusable until
	// Model.ExpandSupport is called. Intermediate retrainings of the
	// coupled SVM's annealing loop use this: their models are discarded
	// after the label-correction step reads the alphas, so materializing
	// their support-vector lists is pure waste.
	OmitSupportVectors bool
	// TrustedProblem skips Problem.Validate inside Train. Only for
	// callers that retrain many problems derived from one already
	// validated template — same points, labels kept in {-1,+1}, costs
	// kept positive and finite — like the coupled SVM's annealing loop,
	// which otherwise pays the O(n) validation ~60 times per query for
	// problems that cannot have gone invalid. An actually-invalid
	// trusted problem is undefined behavior (garbage in, garbage out).
	TrustedProblem bool
	// Ctx optionally carries the caller's cancellation context. The solver
	// polls it at entry and every ctxCheckInterval SMO iterations; once it is
	// cancelled Train abandons the run and returns the context's error. An
	// uncancelled context changes nothing: the checks are read-only and the
	// iterate path is untouched.
	Ctx context.Context
}

// ctxCheckInterval is how many SMO iterations pass between cancellation
// polls. One iteration touches O(n) gradient entries, so a few hundred
// iterations bound the post-cancellation work to well under a millisecond on
// feedback-sized problems while keeping the poll overhead unmeasurable.
const ctxCheckInterval = 256

// tolerance is the KKT violation at which the solver stops (the LIBSVM
// default).
const tolerance = 1e-3

// Model is a trained SVM decision function
// f(x) = sum_i coef_i K(sv_i, x) + Bias with coef_i = alpha_i * y_i.
type Model struct {
	SupportPoints []kernel.Point
	Coefficients  []float64
	Bias          float64
	Kernel        kernel.Kernel

	// Alphas holds the dual variable of every training point (not only the
	// support vectors), in training order. The LRF-CSVM inspects these.
	Alphas []float64
	// Iterations is the number of SMO pair updates performed.
	Iterations int
	// Converged reports whether the KKT stopping criterion was met before
	// the iteration budget ran out.
	Converged bool

	// svOnce lazily builds svSet, the support vectors in flat row-major
	// storage, for the fused dense scoring path. Models must be shared by
	// pointer (copying would copy the sync.Once).
	svOnce sync.Once
	svSet  *kernel.DenseSet

	// svIndexOnce lazily builds svIndex, the support vectors inverted by
	// index, for the sparse linear scoring path; shared like svSet.
	svIndexOnce sync.Once
	svIndex     *kernel.SparseSVIndex
}

// denseSVSet returns the support vectors as a flat DenseSet when they are
// all dense points, building it once on first use; nil otherwise.
func (m *Model) denseSVSet() *kernel.DenseSet {
	m.svOnce.Do(func() {
		vs := make([]linalg.Vector, len(m.SupportPoints))
		for i, sv := range m.SupportPoints {
			d, ok := sv.(kernel.Dense)
			if !ok {
				return
			}
			vs[i] = linalg.Vector(d)
		}
		if len(vs) > 0 {
			m.svSet = kernel.NewDenseSet(vs)
		}
	})
	return m.svSet
}

// sparseSVIndex returns the support vectors inverted by index when
// kernel.LinearAccumulateSparse can score them, building the index once on
// first use; nil otherwise.
func (m *Model) sparseSVIndex() *kernel.SparseSVIndex {
	m.svIndexOnce.Do(func() { m.svIndex = kernel.NewSparseSVIndex(m.SupportPoints) })
	return m.svIndex
}

// Train solves the dual problem and returns the resulting model.
func Train(p Problem, cfg Config) (*Model, error) {
	if !cfg.TrustedProblem {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Kernel == nil {
		return nil, errors.New("svm: config must specify a kernel")
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	n := len(p.Points)

	// Degenerate one-class problems: the equality constraint forces
	// alpha = 0, so the decision function is a constant. Return the class
	// prior as the bias so that Predict still answers with the only
	// observed label.
	if oneClass, label := singleClass(p.Labels); oneClass {
		return &Model{
			Kernel:    cfg.Kernel,
			Bias:      label,
			Alphas:    make([]float64, n),
			Converged: true,
		}, nil
	}

	s := newSolver(p, cfg)
	s.solve()
	if s.cancelled {
		s.release()
		return nil, cfg.Ctx.Err()
	}

	model := &Model{
		Kernel:     cfg.Kernel,
		Bias:       s.bias(),
		Alphas:     append([]float64(nil), s.alpha...),
		Iterations: s.iterations,
		Converged:  s.converged,
	}
	if !cfg.OmitSupportVectors {
		model.ExpandSupport(p.Points, p.Labels)
	}
	s.release()
	return model, nil
}

// ExpandSupport populates SupportPoints and Coefficients from the model's
// alphas, given the training problem's points and the labels the model was
// trained with. It is what Train runs eagerly unless
// Config.OmitSupportVectors deferred it, and produces a bit-identical model
// (coef_i = alpha_i * y_i in training order). No-op when the support list
// is already populated or the model has no support vectors.
func (m *Model) ExpandSupport(points []kernel.Point, labels []float64) {
	if len(m.SupportPoints) > 0 {
		return
	}
	nsv := 0
	for _, a := range m.Alphas {
		if a > 0 {
			nsv++
		}
	}
	if nsv == 0 {
		return
	}
	m.SupportPoints = make([]kernel.Point, 0, nsv)
	m.Coefficients = make([]float64, 0, nsv)
	for i, a := range m.Alphas {
		if a > 0 {
			m.SupportPoints = append(m.SupportPoints, points[i])
			m.Coefficients = append(m.Coefficients, a*labels[i])
		}
	}
}

func singleClass(labels []float64) (bool, float64) {
	first := labels[0]
	for _, y := range labels[1:] {
		if y != first {
			return false, 0
		}
	}
	return true, first
}

// Decision evaluates the decision function f(x). Positive values indicate
// the +1 class; the magnitude is the (unnormalized) distance to the
// separating hyperplane used as a relevance score by the retrieval schemes.
func (m *Model) Decision(x kernel.Point) float64 {
	sum := m.Bias
	for i, sv := range m.SupportPoints {
		sum += m.Coefficients[i] * m.Kernel.Eval(sv, x)
	}
	return sum
}

// DecisionBatch stores f(ys[j]) into dst[j] through the batched kernel path.
// buf is optional scratch of length len(ys); pass nil to allocate. The
// accumulation order per point is identical to Decision, so the scores are
// bit-for-bit equal to the scalar path. The model is read-only here, so
// concurrent DecisionBatch calls (e.g. one per collection shard) are safe.
func (m *Model) DecisionBatch(ys []kernel.Point, dst, buf []float64) {
	if len(dst) != len(ys) {
		panic(fmt.Sprintf("svm: DecisionBatch destination length %d, want %d", len(dst), len(ys)))
	}
	for j := range dst {
		dst[j] = m.Bias
	}
	if len(m.SupportPoints) == 0 {
		return
	}
	if _, linear := m.Kernel.(kernel.Linear); linear {
		// Sparse linear models (the log modality) take the transposed
		// multi-SV path: the support vectors inverted by index once per
		// model, one gather sweep per image, the per-SV accumulation's
		// arithmetic in its order.
		if kernel.LinearAccumulateSparse(m.Coefficients, m.sparseSVIndex(), ys, dst) {
			return
		}
	}
	if len(buf) != len(ys) {
		buf = make([]float64, len(ys))
	}
	for i, sv := range m.SupportPoints {
		kernel.EvalBatch(m.Kernel, sv, ys, buf)
		c := m.Coefficients[i]
		for j, kv := range buf {
			dst[j] += c * kv
		}
	}
}

// DecisionSet stores f(set_i) into dst[i], evaluating every support vector
// against the flat collection storage. buf is optional scratch of length
// set.Len(). Dense RBF models go through the fused, pair-blocked
// kernel.RBF.AccumulateSet path, which matches Decision to O(1e-15)
// relative error (norm expansion plus ~2 ulp fast exponential); other
// kernels accumulate per support vector with scalar-identical arithmetic.
// Safe for concurrent calls on disjoint destinations.
func (m *Model) DecisionSet(set *kernel.DenseSet, dst, buf []float64) {
	if len(dst) != set.Len() {
		panic(fmt.Sprintf("svm: DecisionSet destination length %d, want %d", len(dst), set.Len()))
	}
	for j := range dst {
		dst[j] = m.Bias
	}
	if len(m.SupportPoints) == 0 {
		return
	}
	if rbf, ok := m.Kernel.(kernel.RBF); ok {
		if svs := m.denseSVSet(); svs != nil {
			rbf.AccumulateSet(m.Coefficients, svs, set, dst)
			return
		}
	}
	if len(buf) != len(dst) {
		buf = make([]float64, len(dst))
	}
	for i, sv := range m.SupportPoints {
		kernel.EvalSet(m.Kernel, sv, set, buf)
		c := m.Coefficients[i]
		for j, kv := range buf {
			dst[j] += c * kv
		}
	}
}

// Predict returns the predicted label in {-1,+1}. Zero decision values are
// mapped to +1.
func (m *Model) Predict(x kernel.Point) float64 {
	if m.Decision(x) < 0 {
		return -1
	}
	return 1
}

// solverScratch is the reusable per-training working memory of the solver:
// the dual iterate, the gradient, and the working-set penalties. Repeated
// retrainings — the coupled SVM's annealing loop retrains each modality
// dozens of times per feedback round — recycle these arrays through a
// sync.Pool instead of reallocating them.
type solverScratch struct {
	alpha  []float64
	grad   []float64
	upPen  []float64
	lowPen []float64

	// sol is the solver struct itself, recycled with the arrays: at dozens
	// of retrainings per feedback round the per-Train escape of &solver{}
	// is measurable on the allocation profile.
	sol solver
}

var scratchPool = sync.Pool{New: func() interface{} { return new(solverScratch) }}

// grab resizes the scratch for an n-point problem, reusing capacity.
func (sc *solverScratch) grab(n int) {
	if cap(sc.alpha) < n {
		sc.alpha = make([]float64, n)
		sc.grad = make([]float64, n)
		sc.upPen = make([]float64, n)
		sc.lowPen = make([]float64, n)
	}
	sc.alpha = sc.alpha[:n]
	sc.grad = sc.grad[:n]
	sc.upPen = sc.upPen[:n]
	sc.lowPen = sc.lowPen[:n]
}

// solver carries the SMO state.
type solver struct {
	p       Problem
	cfg     Config
	cache   *kernel.Cache
	scratch *solverScratch

	alpha []float64
	grad  []float64 // G_i = (Q alpha)_i - 1

	// upPen/lowPen cache the working-set membership of each variable as
	// additive penalties: upPen[t] is 0 when t is in the up set
	// ((y>0 && a<C) || (y<0 && a>0)) and -Inf otherwise; lowPen[t] is 0
	// when t is in the low set (the mirror predicate) and +Inf otherwise.
	// The selection scans compare v+pen instead of branching on a mask:
	// for a member the addend 0 leaves v unchanged (+0 vs -0 never
	// affects a comparison), for a non-member the result is ∓Inf or NaN
	// (when v is itself the opposite infinity), none of which can win a
	// strict comparison against the running extreme — exactly like the
	// short-circuited mask test, branch-free. Refreshed whenever an alpha
	// changes (refreshElig).
	upPen  []float64
	lowPen []float64

	iterations int
	converged  bool
	cancelled  bool
}

func newSolver(p Problem, cfg Config) *solver {
	n := len(p.Points)
	cache := cfg.SharedCache
	if cache == nil || cache.NumPoints() != n {
		cache = kernel.NewCache(cfg.Kernel, p.Points)
	}
	sc := scratchPool.Get().(*solverScratch)
	sc.grab(n)
	s := &sc.sol
	*s = solver{
		p:       p,
		cfg:     cfg,
		cache:   cache,
		scratch: sc,
		alpha:   sc.alpha,
		grad:    sc.grad,
		upPen:   sc.upPen,
		lowPen:  sc.lowPen,
	}
	// Every training starts from the zero iterate, whose gradient Q*0 - e is
	// -e whatever the kernel: no row is read before the first pair update.
	for t := range s.alpha {
		s.alpha[t] = 0
		s.grad[t] = -1
		s.refreshElig(t)
	}
	return s
}

// refreshElig recomputes the up/low working-set penalties of index t from
// its current alpha. Called for every index at construction and for the
// two pair indices after each SMO update — the only places alphas change.
func (s *solver) refreshElig(t int) {
	a := s.alpha[t]
	var up, low bool
	if s.p.Labels[t] > 0 {
		up = a < s.p.C[t]
		low = a > 0
	} else {
		up = a > 0
		low = a < s.p.C[t]
	}
	if up {
		s.upPen[t] = 0
	} else {
		s.upPen[t] = math.Inf(-1)
	}
	if low {
		s.lowPen[t] = 0
	} else {
		s.lowPen[t] = math.Inf(1)
	}
}

// release returns the solver's working memory to the pool. The caller must
// have copied out everything it needs (Train copies the alphas into the
// model first).
func (s *solver) release() {
	sc := s.scratch
	// Zero the whole solver (it lives inside the pooled scratch) so pooled
	// entries retain no problem, kernel cache, or config references.
	*s = solver{}
	scratchPool.Put(sc)
}

// selectPair returns the maximal violating pair and the current violation.
// The up-set/low-set membership tests come from the cached upPen/lowPen
// penalties, so the scan reads each slot exactly once and carries no label
// or membership branch. The steady-state iterations get their pair from the
// fused scan inside step instead; this standalone scan serves the first
// iteration, after the constructor wrote the gradient wholesale.
// Both scans visit the same indices in the same order over the same gradient
// values, so they select bit-identical pairs.
func (s *solver) selectPair() (i, j int, violation float64) {
	maxUp := math.Inf(-1)
	minLow := math.Inf(1)
	i, j = -1, -1
	labels, grad := s.p.Labels, s.grad
	upPen, lowPen := s.upPen, s.lowPen
	for t, g := range grad {
		v := -labels[t] * g
		if vu := v + upPen[t]; vu > maxUp {
			maxUp = vu
			i = t
		}
		if vl := v + lowPen[t]; vl < minLow {
			minLow = vl
			j = t
		}
	}
	if i < 0 || j < 0 {
		return -1, -1, 0
	}
	return i, j, maxUp - minLow
}

func (s *solver) solve() {
	ctxCounter := ctxCheckInterval
	maxIterations := s.cfg.MaxIterations
	if maxIterations <= 0 {
		maxIterations = 100*len(s.p.Points) + 10000
	}
	i, j, violation := s.selectPair()
	for s.iterations = 0; s.iterations < maxIterations; s.iterations++ {
		if s.cfg.Ctx != nil {
			if ctxCounter--; ctxCounter == 0 {
				ctxCounter = ctxCheckInterval
				if s.cfg.Ctx.Err() != nil {
					s.cancelled = true
					return
				}
			}
		}
		if i < 0 || violation <= tolerance {
			s.converged = true
			return
		}
		var ok bool
		i, j, violation, ok = s.step(i, j)
		if !ok {
			return
		}
	}
}

// step performs one SMO pair update on (i, j) and the corresponding
// gradient update. The next maximal violating pair is selected inside the
// same gradient-update loop — each index is scanned with its freshly written
// gradient value, in the same order a standalone selectPair would visit it,
// so the fused selection is bit-identical while saving one full pass per
// iteration. It returns ok == false when the pair is numerically stuck and
// the solver should stop.
func (s *solver) step(i, j int) (ni, nj int, violation float64, ok bool) {
	const tau = 1e-12
	yi, yj := s.p.Labels[i], s.p.Labels[j]
	ci, cj := s.p.C[i], s.p.C[j]
	// Both rows are needed for the gradient update below anyway, so
	// fetch them first and read the three pair entries from them
	// instead of issuing separate single-pair probes.
	rowI := s.cache.Row(i)
	rowJ := s.cache.Row(j)
	kii := rowI[i]
	kjj := rowJ[j]
	kij := rowI[j]
	oldAi, oldAj := s.alpha[i], s.alpha[j]

	if yi != yj {
		// In terms of the signed matrix Q this is Q_ii+Q_jj+2Q_ij; with
		// opposite labels Q_ij = -K_ij.
		quad := kii + kjj - 2*kij
		if quad <= 0 {
			quad = tau
		}
		delta := (-s.grad[i] - s.grad[j]) / quad
		diff := oldAi - oldAj
		s.alpha[i] += delta
		s.alpha[j] += delta
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
		}
		if diff > ci-cj {
			if s.alpha[i] > ci {
				s.alpha[i] = ci
				s.alpha[j] = ci - diff
			}
		} else {
			if s.alpha[j] > cj {
				s.alpha[j] = cj
				s.alpha[i] = cj + diff
			}
		}
	} else {
		quad := kii + kjj - 2*kij
		if quad <= 0 {
			quad = tau
		}
		delta := (s.grad[i] - s.grad[j]) / quad
		sum := oldAi + oldAj
		s.alpha[i] -= delta
		s.alpha[j] += delta
		if sum > ci {
			if s.alpha[i] > ci {
				s.alpha[i] = ci
				s.alpha[j] = sum - ci
			}
		} else {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = sum
			}
		}
		if sum > cj {
			if s.alpha[j] > cj {
				s.alpha[j] = cj
				s.alpha[i] = sum - cj
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = sum
			}
		}
	}

	// refreshElig for i and j, manually inlined: the function exceeds the
	// compiler's inlining budget, and these two per-iteration calls are the
	// hot ones (the constructor loop keeps the named function).
	for _, t := range [2]int{i, j} {
		a := s.alpha[t]
		var up, low bool
		if s.p.Labels[t] > 0 {
			up = a < s.p.C[t]
			low = a > 0
		} else {
			up = a > 0
			low = a < s.p.C[t]
		}
		if up {
			s.upPen[t] = 0
		} else {
			s.upPen[t] = math.Inf(-1)
		}
		if low {
			s.lowPen[t] = 0
		} else {
			s.lowPen[t] = math.Inf(1)
		}
	}
	dAi := s.alpha[i] - oldAi
	dAj := s.alpha[j] - oldAj
	if dAi == 0 && dAj == 0 {
		// Numerically stuck pair: treat as converged to avoid spinning on it.
		s.converged = true
		return 0, 0, 0, false
	}
	// y_i*dA_i and y_j*dA_j are hoisted: labels are exactly +-1, so
	// the refactored products are bit-identical to the per-term form.
	ydAi := yi * dAi
	ydAj := yj * dAj
	grad := s.grad
	labels := s.p.Labels
	upPen, lowPen := s.upPen, s.lowPen
	maxUp := math.Inf(-1)
	minLow := math.Inf(1)
	ni, nj = -1, -1
	// The membership tests add the upPen/lowPen penalties (refreshed above
	// for i and j, unchanged for everything else), selecting exactly the
	// pair the predicate form would while keeping the per-element branches
	// on the rarely-taken new-extreme comparisons only. Reslicing everything
	// to the gradient length lets the compiler drop the per-element bounds
	// checks (the kernel rows come from the cache, so their length is opaque
	// here).
	rowI = rowI[:len(grad)]
	rowJ = rowJ[:len(grad)]
	labels = labels[:len(grad)]
	upPen = upPen[:len(grad)]
	lowPen = lowPen[:len(grad)]
	for t := range grad {
		g := grad[t] + labels[t]*(ydAi*rowI[t]+ydAj*rowJ[t])
		grad[t] = g
		v := -labels[t] * g
		if vu := v + upPen[t]; vu > maxUp {
			maxUp = vu
			ni = t
		}
		if vl := v + lowPen[t]; vl < minLow {
			minLow = vl
			nj = t
		}
	}
	if ni < 0 || nj < 0 {
		return -1, -1, 0, true
	}
	return ni, nj, maxUp - minLow, true
}

// bias computes the intercept b of the decision function from the KKT
// conditions: free support vectors satisfy y_i f(x_i) = 1 exactly.
func (s *solver) bias() float64 {
	var sum float64
	var nFree int
	ub := math.Inf(1)
	lb := math.Inf(-1)
	for i := range s.p.Points {
		yG := s.p.Labels[i] * s.grad[i]
		switch {
		case s.alpha[i] >= s.p.C[i]:
			if s.p.Labels[i] < 0 {
				ub = math.Min(ub, yG)
			} else {
				lb = math.Max(lb, yG)
			}
		case s.alpha[i] <= 0:
			if s.p.Labels[i] > 0 {
				ub = math.Min(ub, yG)
			} else {
				lb = math.Max(lb, yG)
			}
		default:
			sum += yG
			nFree++
		}
	}
	var rho float64
	if nFree > 0 {
		rho = sum / float64(nFree)
	} else {
		rho = (ub + lb) / 2
	}
	return -rho
}
