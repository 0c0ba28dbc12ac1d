package kernel

// The fused distance+RBF-exp pass over DenseSet rows (RBF.AccumulateSet) is
// the dominant kernel of the SVM ranking path. It has one implementation,
// the tile driver blockAccumulateRBF, parameterised only by the four
// routines it calls: the RBF arguments of a tile against a pair of support
// vectors (pairArgs), the row dot against one (one; it also serves
// DenseSet.SquaredDistancesInto), the exponential over a tile column (exp)
// and the coefficient fold of a pair (fold). There are three members: the
// pure-Go routines (everywhere), the Go-assembly AVX2 routines (amd64
// without the purego tag, hasAVX2) and the AVX-512 member (hasAVX512 too),
// whose pair arguments and fold run eight rows per step in 512-bit
// registers and whose other two routines are the AVX2 ones. The assembly
// reproduces the Go four-accumulator summation pattern lane for lane — four
// rows against two support vectors per step in AVX2, eight in AVX-512, each
// lane the Go chain — and evaluates the norm expansion's, expOne's and the
// fold's arithmetic in their order, one correctly rounded instruction per
// Go operation and no fused multiply-add. On amd64, where the Go compiler
// does not fuse either, the assembly members, the Go members and the
// straight-line reference loop the parity tests keep (accumulateRBFScalar)
// agree to the bit — no ULP tolerance is needed or permitted. On other architectures only the Go
// members exist; each writes its products float64(x*y), which the Go spec
// forbids fusing into an add, so over the same row norms they give amd64's
// bits. The choice is made once, here, for the widest member the CPU
// runs: package svm runs its SMO step's assembly member exactly where this
// package runs an assembly member (AVX2), so Backend names what the trainer
// runs on too.

// dotKernels is one backend: the four routines of the tile driver and the
// name Backend reports for them.
type dotKernels struct {
	name     string
	pairArgs pairArgsFunc
	one      dotRowsFunc
	exp      func(v []float64)
	fold     foldFunc
}

var goKernels = dotKernels{name: "unrolled", pairArgs: pairArgsGo, one: dotRowsGo, exp: expLanes, fold: foldGo}

// activeKernels is what AccumulateSet runs on, fixed once at package
// initialisation from the build constraints and the CPU: the widest member
// the CPU runs. Nothing sets it afterwards.
var activeKernels = func() dotKernels {
	if ks := asmKernels(); len(ks) > 0 {
		return ks[len(ks)-1]
	}
	return goKernels
}()

// Backend reports which kernels the scoring scans and the SMO step run on:
// "avx512" (the tile's pair arguments and fold eight rows per instruction,
// its other routines and svm's step AVX2), "avx2" (the tile's four assembly
// routines and svm's step) or "unrolled" (the pure-Go ones). Read-only; GET
// /api/status, cbir_kernel_backend_info and the benchmark reports surface it.
func Backend() string {
	return activeKernels.name
}

// AVX2 reports whether Backend is "avx2" or "avx512", both of which run the
// AVX2 routines: the fact package svm picks its SMO step's member by.
func AVX2() bool {
	return activeKernels.name == "avx2" || activeKernels.name == "avx512"
}

// dotRowsFunc computes du[r] = mat[r]·u for each row of the rows×cols
// row-major matrix, with the scalar four-accumulator summation pattern.
type dotRowsFunc func(mat []float64, rows, cols int, u, du []float64)

// pairArgsFunc computes, for each row r of the rows×cols row-major matrix
// with squared norm xn[r], the RBF exponents against the support vectors u
// and v of squared norms nU and nV:
// aU[r] = negGamma·max((xn[r]+nU) − 2·(mat[r]·u), 0), and aV[r] likewise,
// the dots with the four-accumulator pattern, a negative zero or a NaN
// passing the clamp as "if a < 0 { a = 0 }" lets it.
type pairArgsFunc func(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64)

// foldFunc adds a pair of support vectors' kernel columns to the scores:
// out[r] = (out[r] + cA·eA[r]) + cB·eB[r].
type foldFunc func(out, eA, eB []float64, cA, cB float64)

// rbfBlockRows is the row-tile size of the blocked AccumulateSet driver:
// 64 rows x 36 dims x 8 B = 18 KiB of row data per tile, small enough that
// the tile stays L1-resident across every support-vector pass while the
// exp-lane batches are long enough to amortize their loop overhead.
const rbfBlockRows = 64

// blockAccumulateRBF is the tile driver behind RBF.AccumulateSet. Per row it
// performs exactly the arithmetic of the reference loop in exactly its
// accumulation order — four-accumulator dots combined as ((s0+s1)+s2)+s3,
// norm expansion with clamp, per-element Cephes exp (expOne), and coefficient
// pairs folded as (dst + cA*eA) + cB*eB — structured so each row tile is
// scored against all support vectors while hot and the exponentials run over
// whole tile columns.
func blockAccumulateRBF(k dotKernels, gamma float64, coefs []float64, svs, xs *DenseSet, dst []float64) {
	n := svs.Len()
	rows := xs.Len()
	cols := xs.mat.Cols
	svData := svs.mat.Data
	var dA, dB [rbfBlockRows]float64
	for base := 0; base < rows; base += rbfBlockRows {
		blk := rows - base
		if blk > rbfBlockRows {
			blk = rbfBlockRows
		}
		mat := xs.mat.Data[base*cols : (base+blk)*cols]
		xn := xs.norms[base : base+blk]
		out := dst[base : base+blk]
		t := 0
		for ; t+2 <= n; t += 2 {
			k.pairArgs(mat, blk, cols, svData[t*cols:(t+1)*cols], svData[(t+1)*cols:(t+2)*cols],
				xn, svs.norms[t], svs.norms[t+1], -gamma, dA[:blk], dB[:blk])
			k.exp(dA[:blk])
			k.exp(dB[:blk])
			k.fold(out, dA[:blk], dB[:blk], coefs[t], coefs[t+1])
		}
		if t < n {
			k.one(mat, blk, cols, svData[t*cols:(t+1)*cols], dA[:blk])
			nA, cA := svs.norms[t], coefs[t]
			for j := 0; j < blk; j++ {
				a := xn[j] + nA - float64(2*dA[j])
				if a < 0 {
					a = 0
				}
				dA[j] = -gamma * a
			}
			k.exp(dA[:blk])
			for j := 0; j < blk; j++ {
				out[j] += float64(cA * dA[j])
			}
		}
	}
}

// pairArgsGo is the pure-Go pairArgs, and its definition: the pair dot, then
// the norm expansion, the clamp and the scaling element by element.
func pairArgsGo(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64) {
	dotPairRowsGo(mat, rows, cols, u, v, aU, aV)
	for j := 0; j < rows; j++ {
		a := xn[j] + nU - float64(2*aU[j])
		if a < 0 {
			a = 0
		}
		b := xn[j] + nV - float64(2*aV[j])
		if b < 0 {
			b = 0
		}
		aU[j] = negGamma * a
		aV[j] = negGamma * b
	}
}

// foldGo is the pure-Go fold, and its definition.
func foldGo(out, eA, eB []float64, cA, cB float64) {
	for j := range out {
		s := out[j] + float64(cA*eA[j])
		out[j] = s + float64(cB*eB[j])
	}
}

// dotPairRowsGo is the pair dot of pairArgsGo: du[r] = mat[r]·u and
// dv[r] = mat[r]·v in one pass over the matrix; per row, four-way unrolled
// accumulators combined as ((s0+s1)+s2)+s3, with the tail folded into
// accumulator 0.
func dotPairRowsGo(mat []float64, rows, cols int, u, v, du, dv []float64) {
	for r := 0; r < rows; r++ {
		x := mat[r*cols : r*cols+cols]
		u := u[:len(x)]
		v := v[:len(x)]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		i := 0
		// Two quads per trip halve the loop overhead; each accumulator
		// still sees its i ≡ l (mod 4) elements in the same ascending
		// order, so the sums are bit-identical to the quad-at-a-time
		// loop.
		for ; i+8 <= len(x); i += 8 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			b0 += float64(x[i] * v[i])
			b1 += float64(x[i+1] * v[i+1])
			b2 += float64(x[i+2] * v[i+2])
			b3 += float64(x[i+3] * v[i+3])
			a0 += float64(x[i+4] * u[i+4])
			a1 += float64(x[i+5] * u[i+5])
			a2 += float64(x[i+6] * u[i+6])
			a3 += float64(x[i+7] * u[i+7])
			b0 += float64(x[i+4] * v[i+4])
			b1 += float64(x[i+5] * v[i+5])
			b2 += float64(x[i+6] * v[i+6])
			b3 += float64(x[i+7] * v[i+7])
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			b0 += float64(x[i] * v[i])
			b1 += float64(x[i+1] * v[i+1])
			b2 += float64(x[i+2] * v[i+2])
			b3 += float64(x[i+3] * v[i+3])
		}
		for ; i < len(x); i++ {
			a0 += float64(x[i] * u[i])
			b0 += float64(x[i] * v[i])
		}
		du[r] = ((a0 + a1) + a2) + a3
		dv[r] = ((b0 + b1) + b2) + b3
	}
}

// dotRowsGo is the single-vector variant of dotPairRowsGo.
func dotRowsGo(mat []float64, rows, cols int, u, du []float64) {
	for r := 0; r < rows; r++ {
		x := mat[r*cols : r*cols+cols]
		u := u[:len(x)]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+8 <= len(x); i += 8 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
			a0 += float64(x[i+4] * u[i+4])
			a1 += float64(x[i+5] * u[i+5])
			a2 += float64(x[i+6] * u[i+6])
			a3 += float64(x[i+7] * u[i+7])
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += float64(x[i] * u[i])
			a1 += float64(x[i+1] * u[i+1])
			a2 += float64(x[i+2] * u[i+2])
			a3 += float64(x[i+3] * u[i+3])
		}
		for ; i < len(x); i++ {
			a0 += float64(x[i] * u[i])
		}
		du[r] = ((a0 + a1) + a2) + a3
	}
}
