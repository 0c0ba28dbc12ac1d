package kernel

import "math"

// The exponential of the RBF kernel, on every path.
//
// math.Exp costs ~20ns a call, the dominant cost of an RBF ranking pass, and
// on amd64 it is assembly whose last bits depend on whether the CPU has FMA.
// expOne is the classic Cephes rational approximation (the algorithm
// vectorized math libraries use), with no multiply-add a compiler may fuse.
// RBF.Eval calls it; RBF.EvalBatch, RBF.EvalSet and the tile run a backend's
// exp routine over a row of arguments, bit-identical to element-wise expOne.
// Two evaluate it four elements at a time: expLanes, four interleaved scalar
// Go lanes so the divisions and polynomial chains overlap in the pipeline
// (the purego, non-AVX2 and non-amd64 lane), and expQuadsAVX2
// (backend_avx2_amd64.s), the same operations in the same order in
// four-wide vector instructions. Maximum error is ~2 ulp (~4e-16 relative).
// Arguments outside [-expWindow, expWindow] (and NaN) delegate to math.Exp,
// for underflow, overflow and special cases; an RBF argument is never
// positive, so what it delegates are kernel values below 1e-304.

const (
	expLog2E = 1.4426950408889634073599 // 1/ln(2)
	expC1    = 6.93145751953125e-1      // high part of ln(2), Cody-Waite
	expC2    = 1.42860682030941723212e-6

	// expWindow bounds the arguments the Cephes evaluation takes; math.Exp
	// answers outside it.
	expWindow = 700
)

var (
	expP = [3]float64{
		1.26177193074810590878e-4,
		3.02994407707441961300e-2,
		9.99999999999999999910e-1,
	}
	expQ = [4]float64{
		3.00198505138664455042e-6,
		2.52448340349684104192e-3,
		2.27265548208155028766e-1,
		2.00000000000000000005e0,
	}
)

// expOne is the scalar Cephes exponential: the arithmetic of one expLanes
// lane and of one vector lane of expQuadsAVX2, and their fallback for tails
// and out-of-window quads.
func expOne(x float64) float64 {
	if x != x || x > expWindow || x < -expWindow {
		return math.Exp(x)
	}
	// Inside the window n is in [-1010, 1010], so 2^n is a normal float64
	// whose bits are (n+1023)<<52 and the scaling below is one multiply: no
	// denormal or overflow arm exists, here, in expLanes or in the assembly.
	k := math.Floor(float64(expLog2E*x) + 0.5)
	n := int(k)
	x -= float64(k * expC1)
	x -= float64(k * expC2)
	xx := x * x
	p := float64(x * (float64((float64(expP[0]*xx)+expP[1])*xx) + expP[2]))
	q := float64((float64((float64(expQ[0]*xx)+expQ[1])*xx)+expQ[2])*xx) + expQ[3]
	return (1 + float64(2*(p/(q-p)))) * math.Float64frombits(uint64(n+1023)<<52)
}

// expLanes replaces every element of v with e^v[i], processing four lanes at
// a time so the four divisions and polynomial chains overlap in the
// pipeline. Each lane performs exactly the arithmetic of expOne, so the
// results are bit-identical to element-wise expOne calls; any
// quad containing an argument outside the window (or NaN) falls back to
// per-element expOne, which delegates those elements to math.Exp.
func expLanes(v []float64) {
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a, b, c, d := v[i], v[i+1], v[i+2], v[i+3]
		if a != a || a > expWindow || a < -expWindow ||
			b != b || b > expWindow || b < -expWindow ||
			c != c || c > expWindow || c < -expWindow ||
			d != d || d > expWindow || d < -expWindow {
			v[i], v[i+1], v[i+2], v[i+3] = expOne(a), expOne(b), expOne(c), expOne(d)
			continue
		}
		ka := math.Floor(float64(expLog2E*a) + 0.5)
		kb := math.Floor(float64(expLog2E*b) + 0.5)
		kc := math.Floor(float64(expLog2E*c) + 0.5)
		kd := math.Floor(float64(expLog2E*d) + 0.5)
		na, nb, nc, nd := int(ka), int(kb), int(kc), int(kd)
		a -= float64(ka * expC1)
		b -= float64(kb * expC1)
		c -= float64(kc * expC1)
		d -= float64(kd * expC1)
		a -= float64(ka * expC2)
		b -= float64(kb * expC2)
		c -= float64(kc * expC2)
		d -= float64(kd * expC2)
		aa := a * a
		bb := b * b
		cc := c * c
		dd := d * d
		pa := float64(a * (float64((float64(expP[0]*aa)+expP[1])*aa) + expP[2]))
		pb := float64(b * (float64((float64(expP[0]*bb)+expP[1])*bb) + expP[2]))
		pc := float64(c * (float64((float64(expP[0]*cc)+expP[1])*cc) + expP[2]))
		pd := float64(d * (float64((float64(expP[0]*dd)+expP[1])*dd) + expP[2]))
		qa := float64((float64((float64(expQ[0]*aa)+expQ[1])*aa)+expQ[2])*aa) + expQ[3]
		qb := float64((float64((float64(expQ[0]*bb)+expQ[1])*bb)+expQ[2])*bb) + expQ[3]
		qc := float64((float64((float64(expQ[0]*cc)+expQ[1])*cc)+expQ[2])*cc) + expQ[3]
		qd := float64((float64((float64(expQ[0]*dd)+expQ[1])*dd)+expQ[2])*dd) + expQ[3]
		v[i] = (1 + float64(2*(pa/(qa-pa)))) * math.Float64frombits(uint64(na+1023)<<52)
		v[i+1] = (1 + float64(2*(pb/(qb-pb)))) * math.Float64frombits(uint64(nb+1023)<<52)
		v[i+2] = (1 + float64(2*(pc/(qc-pc)))) * math.Float64frombits(uint64(nc+1023)<<52)
		v[i+3] = (1 + float64(2*(pd/(qd-pd)))) * math.Float64frombits(uint64(nd+1023)<<52)
	}
	for ; i < len(v); i++ {
		v[i] = expOne(v[i])
	}
}
