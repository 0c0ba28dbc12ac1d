package kernel

import (
	"fmt"
	"math"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

const batchTol = 1e-12

func batchDensePoints(n, dim int, seed uint64) ([]linalg.Vector, []Point) {
	rng := linalg.NewRNG(seed)
	vs := make([]linalg.Vector, n)
	for i := range vs {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.Range(-2, 2)
		}
		vs[i] = v
	}
	return vs, DensePoints(vs)
}

func batchSparsePoints(n, dim int, seed uint64) []Point {
	rng := linalg.NewRNG(seed)
	pts := make([]Point, n)
	for i := range pts {
		v := sparse.New(dim)
		for j := 0; j < dim; j++ {
			if rng.Float64() < 0.3 {
				v.Set(j, rng.Range(-1, 1))
			}
		}
		pts[i] = NewSparse(v)
	}
	return pts
}

func batchKernels() []Kernel {
	return []Kernel{
		Linear{},
		RBF{Gamma: 0.37},
	}
}

// TestEvalBatchMatchesScalar pins every kernel's batched point path to the
// scalar Eval on dense and sparse points.
func TestEvalBatchMatchesScalar(t *testing.T) {
	_, dense := batchDensePoints(13, 7, 1)
	sparsePts := batchSparsePoints(13, 9, 2)
	for _, k := range batchKernels() {
		for name, pts := range map[string][]Point{"dense": dense, "sparse": sparsePts} {
			dst := make([]float64, len(pts))
			EvalBatch(k, pts[0], pts, dst)
			for j, y := range pts {
				want := k.Eval(pts[0], y)
				if math.Abs(dst[j]-want) > batchTol {
					t.Errorf("%s %s: EvalBatch[%d] = %v, want %v", k.Name(), name, j, dst[j], want)
				}
			}
		}
	}
}

// TestEvalSetMatchesScalar pins every kernel's DenseSet path (including the
// RBF norm expansion) to the scalar Eval within 1e-12.
func TestEvalSetMatchesScalar(t *testing.T) {
	vs, pts := batchDensePoints(17, 6, 3)
	set := NewDenseSet(vs)
	for _, k := range batchKernels() {
		dst := make([]float64, set.Len())
		EvalSet(k, pts[2], set, dst)
		for j, y := range pts {
			want := k.Eval(pts[2], y)
			if math.Abs(dst[j]-want) > batchTol {
				t.Errorf("%s: EvalSet[%d] = %v, want %v", k.Name(), j, dst[j], want)
			}
		}
	}
}

// TestGramSetMatchesGram pins the batched Gram construction to the scalar
// per-pair Eval.
func TestGramSetMatchesGram(t *testing.T) {
	vs, pts := batchDensePoints(9, 4, 5)
	set := NewDenseSet(vs)
	for _, k := range batchKernels() {
		got := GramSet(k, set)
		for i := range pts {
			for j := range pts {
				if want := k.Eval(pts[i], pts[j]); math.Abs(got.Row(i)[j]-want) > batchTol {
					t.Errorf("%s: GramSet(%d,%d) = %v, want %v", k.Name(), i, j, got.Row(i)[j], want)
				}
			}
		}
	}
}

// TestAccumulateSetMatchesPerSVAccumulation pins the fused pair-blocked RBF
// scoring loop to the naive per-support-vector accumulation.
func TestAccumulateSetMatchesPerSVAccumulation(t *testing.T) {
	for _, nsv := range []int{1, 2, 5, 8} {
		svVecs, svPts := batchDensePoints(nsv, 6, uint64(10+nsv))
		xsVecs, xsPts := batchDensePoints(21, 6, uint64(20+nsv))
		svs := NewDenseSet(svVecs)
		xs := NewDenseSet(xsVecs)
		k := RBF{Gamma: 0.45}
		coefs := make([]float64, nsv)
		for i := range coefs {
			coefs[i] = float64(i%3) - 1.2
		}
		got := make([]float64, xs.Len())
		k.AccumulateSet(coefs, svs, xs, got)
		for j, x := range xsPts {
			var want float64
			for tSv, sv := range svPts {
				want += coefs[tSv] * k.Eval(sv, x)
			}
			if math.Abs(got[j]-want) > batchTol {
				t.Errorf("nsv=%d: AccumulateSet[%d] = %v, want %v", nsv, j, got[j], want)
			}
		}
	}
}

// TestDenseSetSlice verifies slices view the parent storage consistently.
func TestDenseSetSlice(t *testing.T) {
	vs, _ := batchDensePoints(10, 3, 6)
	set := NewDenseSet(vs)
	sub := set.SliceInto(NewSetView(), 4, 8)
	if sub.Len() != 4 {
		t.Fatalf("slice len = %d, want 4", sub.Len())
	}
	for i := 0; i < sub.Len(); i++ {
		want := linalg.Vector(set.Point(4 + i))
		got := linalg.Vector(sub.Point(i))
		if !got.Equal(want, 0) {
			t.Errorf("slice point %d = %v, want %v", i, got, want)
		}
		if sub.norms[i] != set.norms[4+i] {
			t.Errorf("slice norm %d = %v, want %v", i, sub.norms[i], set.norms[4+i])
		}
	}
}

// TestFastExpAccuracy bounds the fast exponential against math.Exp
// over the argument range the RBF scoring path produces, and checks the
// extreme ranges delegate to math.Exp exactly.
func TestFastExpAccuracy(t *testing.T) {
	rng := linalg.NewRNG(7)
	for i := 0; i < 20000; i++ {
		x := rng.Range(-120, 5)
		want := math.Exp(x)
		got := expOne(x)
		if relErr(got, want) > 5e-15 {
			t.Fatalf("expOne(%v) = %v, want %v", x, got, want)
		}
	}
	for _, x := range []float64{-1e6, -750, 710, 1e6, math.Inf(-1), math.Inf(1), math.NaN()} {
		got := expOne(x)
		want := math.Exp(x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("expOne(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestDenseSetGrowMatchesRebuild(t *testing.T) {
	all, _ := batchDensePoints(40, 7, 99)
	// Grow in several uneven steps from a small base.
	set := NewDenseSet(all[:5])
	for _, hi := range []int{6, 13, 14, 29, 40} {
		set = set.Grow(all[set.Len():hi])
	}
	want := NewDenseSet(all)
	if set.Len() != want.Len() || set.Dim() != want.Dim() {
		t.Fatalf("grown set %dx%d, want %dx%d", set.Len(), set.Dim(), want.Len(), want.Dim())
	}
	for i := 0; i < want.Len(); i++ {
		if set.norms[i] != want.norms[i] {
			t.Fatalf("norm %d: grown %v, rebuilt %v", i, set.norms[i], want.norms[i])
		}
		g := linalg.Vector(set.Point(i))
		r := linalg.Vector(want.Point(i))
		if !g.Equal(r, 0) {
			t.Fatalf("point %d: grown %v, rebuilt %v", i, g, r)
		}
	}
	// Kernel rows over the grown set match the rebuilt set bit for bit.
	k := RBF{Gamma: 0.35}
	got := make([]float64, set.Len())
	exp := make([]float64, want.Len())
	k.EvalSet(linalg.Vector(set.Point(2)), set, got)
	k.EvalSet(linalg.Vector(want.Point(2)), want, exp)
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("EvalSet[%d]: grown %v, rebuilt %v", i, got[i], exp[i])
		}
	}
}

func TestDenseSetGrowLeavesReceiverIntact(t *testing.T) {
	all, _ := batchDensePoints(24, 5, 123)
	base := NewDenseSet(all[:8])
	wantNorms := append(linalg.Vector(nil), base.norms...)
	wantData := append([]float64(nil), base.mat.Data...)

	grown := base
	for _, hi := range []int{9, 16, 24} {
		grown = grown.Grow(all[grown.Len():hi])
	}
	if base.Len() != 8 {
		t.Fatalf("receiver length changed to %d", base.Len())
	}
	if !base.norms.Equal(wantNorms, 0) {
		t.Fatalf("receiver norms changed: %v != %v", base.norms, wantNorms)
	}
	if !linalg.Vector(base.mat.Data).Equal(linalg.Vector(wantData), 0) {
		t.Fatal("receiver storage changed")
	}
	if grown.Len() != 24 {
		t.Fatalf("grown length %d, want 24", grown.Len())
	}
}

func TestDenseSetGrowDimensionMismatchPanics(t *testing.T) {
	all, _ := batchDensePoints(4, 5, 5)
	set := NewDenseSet(all)
	defer func() {
		if recover() == nil {
			t.Fatal("Grow with mismatched dimension did not panic")
		}
	}()
	set.Grow([]linalg.Vector{make(linalg.Vector, 3)})
}

// TestLinearAccumulateSessionsMatchesPerSV pins the decision pass that walks
// the support vectors through the collection's log inverted by session bit
// for bit (Float64bits) to nsv successive Linear.EvalBatch accumulations, the
// per-SV pass — on rows with entries, on the rows no support vector reaches
// (images the log does not cover, whose score is the bias), and for biases of
// either zero sign, where the ±0 terms of the fold decide the sign of the
// result; over the whole collection and cut into ranges. The seeded halves
// (sparse_accumulate_test.go) repeat it at the shapes of the benchmark's log
// modality from several goroutines at once, and on 3,000 small draws full of
// signed zeros, infinities and NaNs.
func TestLinearAccumulateSessionsMatchesPerSV(t *testing.T) {
	t.Run("workload shapes", testLinearAccumulateSessionsAtWorkloadShapes)
	t.Run("special values", testLinearAccumulateSessionsSpecialValues)
	t.Run("odd support vectors", testLinearAccumulateSessionsOddSupportVectors)
	t.Run("non-finite coefficients", testLinearAccumulateSessionsNonFiniteCoefficients)
	const dim = 9
	svs := batchSparsePoints(5, dim, 31)
	ys := batchSparsePoints(24, dim, 32)
	for j := 0; j < len(ys); j += 3 {
		ys[j] = NewSparse(sparse.New(dim)) // no log entry
	}
	ix := NewSparseSVIndex(ys)
	coefSets := map[string][]float64{
		"mixed signs":  {0.8, -1, 0.25, -0.5, 1},
		"all negative": {-0.8, -1, -0.25, -0.5, -1},
	}
	for name, coefs := range coefSets {
		for _, bias := range []float64{0.7, -1.3, 0, math.Copysign(0, -1)} {
			dst0 := make([]float64, len(ys))
			for j := range ys {
				dst0[j] = bias
			}
			for _, ranges := range [][][2]int{{{0, 24}}, {{0, 1}, {1, 7}, {7, 8}, {8, 24}}} {
				checkSessionsMatchPerSV(t, fmt.Sprintf("%s, bias %v (signbit %v), ranges %v", name, bias, math.Signbit(bias), ranges),
					coefs, svs, ys, ix, dst0, ranges)
			}
		}
	}
}
