package kernel

// accumulateRBFScalar is the straight-line AccumulateSet loop: one row at a
// time, one expOne call per row and support vector. It exists to be read
// and to be the oracle the parity tests pin blockAccumulateRBF against, bit
// for bit, over every backend.
func accumulateRBFScalar(gamma float64, coefs []float64, svs, xs *DenseSet, dst []float64) {
	n := svs.Len()
	rows := xs.Len()
	cols := xs.mat.Cols
	svData := svs.mat.Data
	t := 0
	for ; t+2 <= n; t += 2 {
		svA := svData[t*cols : (t+1)*cols]
		svB := svData[(t+1)*cols : (t+2)*cols]
		nA, nB := svs.norms[t], svs.norms[t+1]
		cA, cB := coefs[t], coefs[t+1]
		for j := 0; j < rows; j++ {
			x := xs.mat.Data[j*cols : (j+1)*cols]
			svA := svA[:len(x)]
			svB := svB[:len(x)]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			i := 0
			for ; i+4 <= len(x); i += 4 {
				a0 += x[i] * svA[i]
				a1 += x[i+1] * svA[i+1]
				a2 += x[i+2] * svA[i+2]
				a3 += x[i+3] * svA[i+3]
				b0 += x[i] * svB[i]
				b1 += x[i+1] * svB[i+1]
				b2 += x[i+2] * svB[i+2]
				b3 += x[i+3] * svB[i+3]
			}
			for ; i < len(x); i++ {
				a0 += x[i] * svA[i]
				b0 += x[i] * svB[i]
			}
			dA := xs.norms[j] + nA - 2*(((a0+a1)+a2)+a3)
			if dA < 0 {
				dA = 0
			}
			dB := xs.norms[j] + nB - 2*(((b0+b1)+b2)+b3)
			if dB < 0 {
				dB = 0
			}
			s := dst[j] + cA*expOne(-gamma*dA)
			dst[j] = s + cB*expOne(-gamma*dB)
		}
	}
	if t < n {
		sv := svData[t*cols : (t+1)*cols]
		nA, cA := svs.norms[t], coefs[t]
		for j := 0; j < rows; j++ {
			x := xs.mat.Data[j*cols : (j+1)*cols]
			sv := sv[:len(x)]
			var a0, a1, a2, a3 float64
			i := 0
			for ; i+4 <= len(x); i += 4 {
				a0 += x[i] * sv[i]
				a1 += x[i+1] * sv[i+1]
				a2 += x[i+2] * sv[i+2]
				a3 += x[i+3] * sv[i+3]
			}
			for ; i < len(x); i++ {
				a0 += x[i] * sv[i]
			}
			d := xs.norms[j] + nA - 2*(((a0+a1)+a2)+a3)
			if d < 0 {
				d = 0
			}
			dst[j] += cA * expOne(-gamma*d)
		}
	}
}
