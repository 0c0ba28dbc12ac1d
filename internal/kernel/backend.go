package kernel

// The fused distance+RBF-exp pass over DenseSet rows (RBF.AccumulateSet) is
// the single dominant kernel of the SVM ranking path. It has one
// implementation, the tile driver blockAccumulateRBF, parameterised only by
// the three routines it calls — the two row dots and the exponential over a
// tile column: Go-assembly AVX2 routines where the build and the CPU have
// them (amd64 without the purego tag, hasAVX2), the four-way-unrolled
// pure-Go routines everywhere else. The assembly reproduces the Go
// four-accumulator summation pattern lane for lane and evaluates expOne's
// arithmetic in expOne's order four elements at a time, one correctly
// rounded instruction per Go operation and no fused multiply-add, so both
// are bit-identical to the straight-line reference loop the parity tests
// keep (accumulateRBFScalar) — no ULP tolerance is needed or permitted.

// dotKernels is one backend: the two row-dot routines, the in-place
// exponential, and the name Backend reports for them.
type dotKernels struct {
	name string
	pair dotPairRowsFunc
	one  dotRowsFunc
	exp  func(v []float64)
}

var goKernels = dotKernels{name: "unrolled", pair: dotPairRowsGo, one: dotRowsGo, exp: expLanes}

// activeKernels is what AccumulateSet runs on, fixed once at package
// initialisation from the build constraints and the CPU; nothing sets it
// afterwards.
var activeKernels = func() dotKernels {
	if k, ok := asmKernels(); ok {
		return k
	}
	return goKernels
}()

// Backend reports which kernels the scoring scans run on: "avx2" (the
// assembly dots and exponential) or "unrolled" (the pure-Go ones). Read-only; GET
// /api/status, cbir_kernel_backend_info and the benchmark reports surface it.
func Backend() string {
	return activeKernels.name
}

// dotRowsFunc computes du[r] = mat[r]·u for each row of the rows×cols
// row-major matrix, with the scalar four-accumulator summation pattern.
type dotRowsFunc func(mat []float64, rows, cols int, u, du []float64)

// dotPairRowsFunc computes du[r] = mat[r]·u and dv[r] = mat[r]·v per row,
// sharing one pass over the matrix.
type dotPairRowsFunc func(mat []float64, rows, cols int, u, v, du, dv []float64)

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
			k.pair(mat, blk, cols, svData[t*cols:(t+1)*cols], svData[(t+1)*cols:(t+2)*cols], dA[:blk], dB[:blk])
			nA, nB := svs.norms[t], svs.norms[t+1]
			for j := 0; j < blk; j++ {
				a := xn[j] + nA - 2*dA[j]
				if a < 0 {
					a = 0
				}
				b := xn[j] + nB - 2*dB[j]
				if b < 0 {
					b = 0
				}
				dA[j] = -gamma * a
				dB[j] = -gamma * b
			}
			k.exp(dA[:blk])
			k.exp(dB[:blk])
			cA, cB := coefs[t], coefs[t+1]
			for j := 0; j < blk; j++ {
				s := out[j] + cA*dA[j]
				out[j] = s + cB*dB[j]
			}
		}
		if t < n {
			k.one(mat, blk, cols, svData[t*cols:(t+1)*cols], dA[:blk])
			nA, cA := svs.norms[t], coefs[t]
			for j := 0; j < blk; j++ {
				a := xn[j] + nA - 2*dA[j]
				if a < 0 {
					a = 0
				}
				dA[j] = -gamma * a
			}
			k.exp(dA[:blk])
			for j := 0; j < blk; j++ {
				out[j] += cA * dA[j]
			}
		}
	}
}

// dotPairRowsGo is the pure-Go dot-pair kernel: per row, four-way unrolled
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
			a0 += x[i] * u[i]
			a1 += x[i+1] * u[i+1]
			a2 += x[i+2] * u[i+2]
			a3 += x[i+3] * u[i+3]
			b0 += x[i] * v[i]
			b1 += x[i+1] * v[i+1]
			b2 += x[i+2] * v[i+2]
			b3 += x[i+3] * v[i+3]
			a0 += x[i+4] * u[i+4]
			a1 += x[i+5] * u[i+5]
			a2 += x[i+6] * u[i+6]
			a3 += x[i+7] * u[i+7]
			b0 += x[i+4] * v[i+4]
			b1 += x[i+5] * v[i+5]
			b2 += x[i+6] * v[i+6]
			b3 += x[i+7] * v[i+7]
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += x[i] * u[i]
			a1 += x[i+1] * u[i+1]
			a2 += x[i+2] * u[i+2]
			a3 += x[i+3] * u[i+3]
			b0 += x[i] * v[i]
			b1 += x[i+1] * v[i+1]
			b2 += x[i+2] * v[i+2]
			b3 += x[i+3] * v[i+3]
		}
		for ; i < len(x); i++ {
			a0 += x[i] * u[i]
			b0 += x[i] * v[i]
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
			a0 += x[i] * u[i]
			a1 += x[i+1] * u[i+1]
			a2 += x[i+2] * u[i+2]
			a3 += x[i+3] * u[i+3]
			a0 += x[i+4] * u[i+4]
			a1 += x[i+5] * u[i+5]
			a2 += x[i+6] * u[i+6]
			a3 += x[i+7] * u[i+7]
		}
		for ; i+4 <= len(x); i += 4 {
			a0 += x[i] * u[i]
			a1 += x[i+1] * u[i+1]
			a2 += x[i+2] * u[i+2]
			a3 += x[i+3] * u[i+3]
		}
		for ; i < len(x); i++ {
			a0 += x[i] * u[i]
		}
		du[r] = ((a0 + a1) + a2) + a3
	}
}
