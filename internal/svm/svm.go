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
//   - the decision values of a trailing range of the training points after
//     each solve, read off the Gram matrix (Solver.Decisions), from which
//     the LRF-CSVM label-correction loop computes each unlabeled point's
//     hinge loss under either label to decide which labels to flip.
//
// The solver follows the standard dual formulation
//
//	min_alpha  1/2 alpha' Q alpha - e' alpha
//	s.t.       y' alpha = 0,  0 <= alpha_i <= C_i
//
// with Q_ij = y_i y_j K(x_i,x_j), using maximal-violating-pair working-set
// selection from a zero start.
//
// Each SMO step updates the gradient and selects the next pair in one pass
// over the points (gradSelect). The pass has two members: gradSelectGo, the
// definition, and on amd64 an AVX2 routine that runs four points per
// instruction. The routine performs the same rounded operations in the same
// order, with no fused multiply-add, and merges its lanes so that it picks
// the same first index on every tie. It runs exactly where kernel.Backend
// reports "avx2". The two give the same bits, so the duals, iterations and
// models are the same on any CPU.
//
// A Solver is bound to one point set at a time: it keeps the whole Gram
// matrix of its points and its working arrays while it is bound, and each
// Solve takes new labels and costs over those points. The coupled SVM
// retrains each modality dozens of times per feedback round over one point
// set this way; Train is one Solve on a fresh Solver, and Grow starts one
// from another's matrix. Reset and Grow rebind a solver keeping its storage,
// and ModelInto rewrites a model keeping its, so a trainer that keeps its
// solvers and models across refines (core's training arena) allocates
// nothing once they have grown.
//
// Every product the solver and the decision functions add is written
// float64(x*y), which the Go specification forbids fusing into a
// multiply-add, so over the same kernel values they give the same bits on
// every architecture.
package svm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
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
	// Ctx optionally carries the caller's cancellation context. The solver
	// polls it at entry and every ctxCheckInterval SMO iterations; once it is
	// cancelled Solve abandons the run and returns the context's error. An
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
	// support vectors), in training order.
	Alphas []float64
	// Iterations is the number of SMO pair updates performed.
	Iterations int
	// Converged reports whether the KKT stopping criterion was met before
	// the iteration budget ran out.
	Converged bool

	// svOnce lazily builds svSet, the support vectors in flat row-major
	// storage (svBuf's), for the fused dense scoring path. Models must be
	// shared by pointer (copying would copy the sync.Once).
	svOnce sync.Once
	svSet  *kernel.DenseSet
	svBuf  kernel.DenseSet
	// wOnce lazily builds weights, the weight vector of a linear model over
	// sparse support vectors, for the log half of the scans; linear reports
	// whether it was built.
	wOnce   sync.Once
	weights sparse.Vector
	linear  bool
}

// denseSVSet returns the support vectors as a flat DenseSet when they are
// all dense points, building it once on first use; nil otherwise.
func (m *Model) denseSVSet() *kernel.DenseSet {
	m.svOnce.Do(func() {
		if len(m.SupportPoints) > 0 && m.svBuf.LoadPoints(m.SupportPoints) {
			m.svSet = &m.svBuf
		}
	})
	return m.svSet
}

// LinearWeights returns the model's weight vector over sessions, Σ_t c_t·sv_t
// (kernel.LinearWeights), building it once on first use, so every scan
// worker reads one copy; false when the kernel is not Linear or the support
// vectors are not sparse points of one dimension.
func (m *Model) LinearWeights() (sparse.Vector, bool) {
	m.wOnce.Do(func() {
		if _, ok := m.Kernel.(kernel.Linear); ok {
			m.weights, m.linear = kernel.LinearWeights(m.weights.Entries, m.Coefficients, m.SupportPoints)
		}
	})
	return m.weights, m.linear
}

// Train solves the dual problem and returns the resulting model: one Solve
// on a Solver over the problem's points.
func Train(p Problem, cfg Config) (*Model, error) {
	s, err := NewSolver(p.Points, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Solve(p.Labels, p.C); err != nil {
		return nil, err
	}
	return s.Model(), nil
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
		sum += float64(m.Coefficients[i] * m.Kernel.Eval(sv, x))
	}
	return sum
}

// DecisionSet stores f(set_i) into dst[i], evaluating every support vector
// against the flat collection storage. buf is optional scratch of length
// set.Len(). Dense RBF models go through the fused, pair-blocked
// kernel.RBF.AccumulateSet path, which matches Decision to O(1e-15)
// relative error (norm expansion plus ~2 ulp fast exponential); other
// kernels accumulate each dense support vector's kernel.Kernel.EvalSet row,
// which for Linear is a four-accumulator dot that differs from Decision's in
// the last bits. Safe for concurrent calls on disjoint destinations.
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
		d, _ := kernel.DenseOf(sv)
		m.Kernel.EvalSet(linalg.Vector(d), set, buf)
		c := m.Coefficients[i]
		for j, kv := range buf {
			dst[j] += float64(c * kv)
		}
	}
}

// DecisionBounded stores into dst[i] the scoring pass's score of set_i,
// (f(set_i) + add[i]) − prior_i (a nil lane adds nothing, the zero prior
// subtracts nothing), with DecisionSet's bits, and each row's prior in the
// prior's lane (kernel.Prior). Dense RBF models run through
// kernel.RBF.AccumulateBounded on the caller's tile scratch ts, and a
// non-nil b makes the pass a top-K pass: a row the kernel proves below b's
// floor, or one b has scored already, is skipped, keeps the bias in dst and
// is never handed to b as scored (see kernel.Bound); pos is the lane of
// positive column sums the kernel records or bounds by
// (kernel.PositiveSums). Other models score every row through DecisionSet,
// subtract the prior kernel.Prior.Fill writes, leave b to the caller and
// neither write nor read pos.
func (m *Model) DecisionBounded(set *kernel.DenseSet, dst, add []float64, prior kernel.Prior, pos kernel.PositiveSums, ts *kernel.TileScratch, b kernel.Bound) {
	if rbf, ok := m.Kernel.(kernel.RBF); ok && len(m.SupportPoints) > 0 && m.denseSVSet() != nil {
		if len(dst) != set.Len() {
			panic(fmt.Sprintf("svm: DecisionBounded destination length %d, want %d", len(dst), set.Len()))
		}
		for j := range dst {
			dst[j] = m.Bias
		}
		rbf.AccumulateBounded(m.Coefficients, m.denseSVSet(), set, dst, add, prior, pos, ts, b)
		return
	}
	m.DecisionSet(set, dst, nil)
	if prior.Query != nil {
		prior.Fill(set)
	}
	for j := range dst {
		if add != nil {
			dst[j] += add[j]
		}
		if prior.Query != nil {
			dst[j] -= prior.Lane[j]
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

// Solver is the SMO solver bound to one point set under one Config. It owns
// the points' Gram matrix and its working arrays while it is bound: kernel
// values depend only on the points, never on labels or costs, so the first
// row a Solve reads fills the matrix for every later Solve, which allocates
// nothing. Each Solve starts from alpha = 0, so what it computes depends only
// on the labels and costs it is given, never on the Solves before it. A
// Solver is not safe for concurrent use.
type Solver struct {
	// p is the problem of the latest Solve: the bound points, with labels
	// and costs copied in.
	p     Problem
	cfg   Config
	cache kernel.Cache
	// buf carries the six per-point arrays.
	buf []float64

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
	// short-circuited mask test, branch-free. Solve writes them for the zero
	// start and step rewrites those of i and j, the only alphas it changes.
	upPen  []float64
	lowPen []float64

	intercept  float64
	iterations int
	converged  bool
}

// NewSolver binds a solver to points under cfg. The points are kept, not
// copied.
func NewSolver(points []kernel.Point, cfg Config) (*Solver, error) {
	s := new(Solver)
	if err := s.Reset(points, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset binds the receiver to points under cfg, as NewSolver binds a new
// solver, keeping its storage: its Gram matrix with the inversion of its
// points (kernel.Cache.Reset) and its per-point arrays, which a solver
// rebound every refine reuses once they have grown. It must not be the
// solver another was grown from (Grow) while that one still fills.
func (s *Solver) Reset(points []kernel.Point, cfg Config) error {
	if cfg.Kernel == nil {
		return errors.New("svm: config must specify a kernel")
	}
	s.cache.Reset(cfg.Kernel, points)
	s.bind(cfg)
	return nil
}

// Grow binds dst to the receiver's points followed by more, under the
// receiver's Config, keeping dst's storage, and returns it: its Gram matrix
// is the receiver's grown (kernel.Cache.Grow).
func (s *Solver) Grow(dst *Solver, more []kernel.Point) *Solver {
	s.cache.Grow(&dst.cache, more)
	dst.bind(s.cfg)
	return dst
}

// bind sizes the solver's per-point arrays to the points of its cache under
// cfg, all zero, and clears the latest solution.
func (s *Solver) bind(cfg Config) {
	points := s.cache.Points()
	n := len(points)
	s.buf = slices.Grow(s.buf[:0], 6*n)[:6*n]
	buf := s.buf
	clear(buf)
	s.p = Problem{Points: points, Labels: buf[:n], C: buf[n : 2*n]}
	s.cfg = cfg
	s.alpha, s.grad, s.upPen, s.lowPen = buf[2*n:3*n], buf[3*n:4*n], buf[4*n:5*n], buf[5*n:]
	s.intercept, s.iterations, s.converged = 0, 0, false
}

// Solve trains on the bound points with the given labels (+-1) and per-point
// cost bounds, which it validates and copies. On an error — an invalid
// problem or a cancelled Config.Ctx — the solver holds no solution until the
// next Solve succeeds.
func (s *Solver) Solve(labels, costs []float64) error {
	if err := (Problem{Points: s.p.Points, Labels: labels, C: costs}).Validate(); err != nil {
		return err
	}
	if s.cfg.Ctx != nil {
		if err := s.cfg.Ctx.Err(); err != nil {
			return err
		}
	}
	copy(s.p.Labels, labels)
	copy(s.p.C, costs)
	// Every Solve starts from the zero iterate, whose gradient Q*0 - e is -e
	// whatever the kernel: no row is read before the first pair update.
	// There v_t = -y_t*G_t = y_t, the up set is the +1 labels and the low set
	// the -1 labels, so the first maximal violating pair is the first index
	// of each, with violation 1 - (-1) = 2.
	i, j := -1, -1
	for t, y := range s.p.Labels {
		s.alpha[t] = 0
		s.grad[t] = -1
		if y > 0 {
			s.upPen[t], s.lowPen[t] = 0, math.Inf(1)
			if i < 0 {
				i = t
			}
		} else {
			s.upPen[t], s.lowPen[t] = math.Inf(-1), 0
			if j < 0 {
				j = t
			}
		}
	}
	s.iterations, s.converged = 0, false

	// Degenerate one-class problems: the equality constraint forces
	// alpha = 0, so the decision function is a constant. The class prior is
	// the bias, so that Predict still answers with the only observed label.
	if oneClass, label := singleClass(labels); oneClass {
		s.intercept, s.converged = label, true
		return nil
	}
	if err := s.solve(i, j, 2); err != nil {
		return err
	}
	s.intercept = s.bias()
	return nil
}

// Model returns the decision function of the latest Solve in a new model
// (ModelInto).
func (s *Solver) Model() *Model { return s.ModelInto(new(Model)) }

// ModelInto writes the decision function of the latest Solve into m and
// returns it: its support vectors (coef_i = alpha_i * y_i, in training
// order) and a copy of every alpha. The model reuses the storage of m's
// slices, of the support-vector set and of the weight vector m built, so a
// model rewritten every refine allocates nothing once they have grown; no
// one may still read m.
func (s *Solver) ModelInto(m *Model) *Model {
	*m = Model{
		Kernel:     s.cfg.Kernel,
		Bias:       s.intercept,
		Alphas:     append(m.Alphas[:0], s.alpha...),
		Iterations: s.iterations,
		Converged:  s.converged,
		// The storage of the slices and of what the model builds.
		SupportPoints: m.SupportPoints[:0],
		Coefficients:  m.Coefficients[:0],
		svBuf:         m.svBuf,
		weights:       sparse.Vector{Entries: m.weights.Entries[:0]},
	}
	nsv := 0
	for _, a := range s.alpha {
		if a > 0 {
			nsv++
		}
	}
	if nsv == 0 {
		return m
	}
	m.SupportPoints = slices.Grow(m.SupportPoints, nsv)
	m.Coefficients = slices.Grow(m.Coefficients, nsv)
	for i, a := range s.alpha {
		if a > 0 {
			m.SupportPoints = append(m.SupportPoints, s.p.Points[i])
			m.Coefficients = append(m.Coefficients, a*s.p.Labels[i])
		}
	}
	return m
}

// Iterations returns the number of SMO pair updates of the latest Solve.
func (s *Solver) Iterations() int { return s.iterations }

// Decisions stores into dst[i] the decision value of bound point from+i
// under the latest Solve, f(x_t) = b + sum_j alpha_j y_j K(x_j, x_t), read
// from the Gram matrix. A support vector exists only after a pair update,
// which filled the matrix, so this evaluates no kernel pair. The summation
// order (bias first, then ascending j over alpha_j > 0) and every operand
// match Model().Decision of the same point, whose kernel values are the
// matrix's (kernel.Cache gives Eval's bits), so the values are bit-identical
// to it.
func (s *Solver) Decisions(from int, dst []float64) {
	for i := range dst {
		dst[i] = s.intercept
	}
	for j, a := range s.alpha {
		if a == 0 {
			continue
		}
		row := s.cache.Row(j)[from:]
		row = row[:len(dst)]
		c := a * s.p.Labels[j]
		for i := range dst {
			dst[i] += float64(c * row[i])
		}
	}
}

// solve runs SMO pair updates from the iterate Solve prepared, whose maximal
// violating pair (i, j) has the given violation, until the KKT criterion, a
// stuck pair or the iteration bound stops it. It returns the context's error
// when Config.Ctx is cancelled mid-run.
func (s *Solver) solve(i, j int, violation float64) error {
	ctxCounter := ctxCheckInterval
	maxIterations := s.cfg.MaxIterations
	if maxIterations <= 0 {
		maxIterations = 100*len(s.p.Points) + 10000
	}
	for s.iterations = 0; s.iterations < maxIterations; s.iterations++ {
		if s.cfg.Ctx != nil {
			if ctxCounter--; ctxCounter == 0 {
				ctxCounter = ctxCheckInterval
				if err := s.cfg.Ctx.Err(); err != nil {
					return err
				}
			}
		}
		if i < 0 || violation <= tolerance {
			s.converged = true
			return nil
		}
		var ok bool
		i, j, violation, ok = s.step(i, j)
		if !ok {
			return nil
		}
	}
	return nil
}

// step performs one SMO pair update on (i, j) and the corresponding
// gradient update. The next maximal violating pair is selected inside the
// same gradient-update loop (gradSelect), each index scanned with its freshly
// written gradient value, so one pass over the points serves both. It
// returns ok == false when the pair is numerically stuck and the solver
// should stop.
func (s *Solver) step(i, j int) (ni, nj int, violation float64, ok bool) {
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

	// The working-set penalties of i and j from their new alphas.
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
	ni, nj, maxUp, minLow := gradSelect(s.grad, rowI, rowJ, s.p.Labels, s.upPen, s.lowPen, yi*dAi, yj*dAj)
	if ni < 0 || nj < 0 {
		return -1, -1, 0, true
	}
	return ni, nj, maxUp - minLow, true
}

// gradSelectGo is the Go member of gradSelect, and its definition. It adds
// labels[t]*(ydAi*rowI[t] + ydAj*rowJ[t]) to every grad[t], and scans
// v = -labels[t]*grad[t] over the new values for the first index ni of the
// largest v + upPen[t] and the first index nj of the smallest v + lowPen[t]:
// the maximal violating pair over the up and low sets the penalties mark.
// An index is -1, its extreme -Inf or +Inf, when no value wins a strict
// comparison; a NaN never does.
func gradSelectGo(grad, rowI, rowJ, labels, upPen, lowPen []float64, ydAi, ydAj float64) (ni, nj int, maxUp, minLow float64) {
	maxUp = math.Inf(-1)
	minLow = math.Inf(1)
	ni, nj = -1, -1
	// The membership tests add the upPen/lowPen penalties, selecting exactly
	// the pair the predicate form would while keeping the per-element
	// branches on the rarely-taken new-extreme comparisons only. Reslicing
	// everything to the gradient length lets the compiler drop the
	// per-element bounds checks.
	rowI = rowI[:len(grad)]
	rowJ = rowJ[:len(grad)]
	labels = labels[:len(grad)]
	upPen = upPen[:len(grad)]
	lowPen = lowPen[:len(grad)]
	for t := range grad {
		g := grad[t] + float64(labels[t]*(float64(ydAi*rowI[t])+float64(ydAj*rowJ[t])))
		grad[t] = g
		v := float64(-labels[t] * g)
		if vu := v + upPen[t]; vu > maxUp {
			maxUp = vu
			ni = t
		}
		if vl := v + lowPen[t]; vl < minLow {
			minLow = vl
			nj = t
		}
	}
	return ni, nj, maxUp, minLow
}

// bias computes the intercept b of the decision function from the KKT
// conditions: free support vectors satisfy y_i f(x_i) = 1 exactly.
func (s *Solver) bias() float64 {
	var sum float64
	var nFree int
	ub := math.Inf(1)
	lb := math.Inf(-1)
	for i := range s.p.Points {
		yG := float64(s.p.Labels[i] * s.grad[i])
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
