//go:build amd64 && !purego

package kernel

// AVX2 plumbing: runtime CPU-feature detection (no dependency on anything
// outside the standard library) and thin wrappers that hand slice storage to
// the assembly routines in backend_avx2_amd64.s.

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

//go:noescape
func pairArgsAVX2(mat *float64, groups, cols int, u, v, xn *float64, nU, nV, negGamma float64, aU, aV *float64)

//go:noescape
func foldAVX2(out, eA, eB *float64, quads int, cA, cB float64)

//go:noescape
func dotRowsAVX2(mat *float64, rows, cols int, u, du *float64)

//go:noescape
func expQuadsAVX2(v *float64, quads int) int

// hasAVX2 reports whether the CPU supports AVX2 and the OS saves the YMM
// register state (CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1-2, CPUID.7.0:EBX
// AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// asmKernels returns the assembly routines, ok only when the CPU (and OS)
// support them.
func asmKernels() (k dotKernels, ok bool) {
	if !hasAVX2() {
		return dotKernels{}, false
	}
	return dotKernels{name: "avx2", pairArgs: pairArgsAsm, one: dotRowsAsm, exp: expLanesAsm, fold: foldAsm}, true
}

// pairArgsAsm hands a tile to pairArgsAVX2 in groups of four rows. When the
// row count is not a multiple of four the last group is the tile's last four
// rows, so up to three rows are computed twice, to the same values; a tile
// of fewer than four rows takes the Go routine.
func pairArgsAsm(mat []float64, rows, cols int, u, v, xn []float64, nU, nV, negGamma float64, aU, aV []float64) {
	if rows < 4 || cols == 0 {
		pairArgsGo(mat, rows, cols, u, v, xn, nU, nV, negGamma, aU, aV)
		return
	}
	// The assembly trusts these lengths.
	mat, u, v, xn, aU, aV = mat[:rows*cols], u[:cols], v[:cols], xn[:rows], aU[:rows], aV[:rows]
	pairArgsAVX2(&mat[0], rows/4, cols, &u[0], &v[0], &xn[0], nU, nV, negGamma, &aU[0], &aV[0])
	if rows%4 != 0 {
		r := rows - 4
		pairArgsAVX2(&mat[r*cols], 1, cols, &u[0], &v[0], &xn[r], nU, nV, negGamma, &aU[r], &aV[r])
	}
}

// foldAsm folds whole quads in foldAVX2 and the rest through foldGo.
func foldAsm(out, eA, eB []float64, cA, cB float64) {
	eA, eB = eA[:len(out)], eB[:len(out)]
	whole := len(out) &^ 3
	if whole > 0 {
		foldAVX2(&out[0], &eA[0], &eB[0], whole/4, cA, cB)
	}
	foldGo(out[whole:], eA[whole:], eB[whole:], cA, cB)
}

func dotRowsAsm(mat []float64, rows, cols int, u, du []float64) {
	if rows == 0 {
		return
	}
	if cols == 0 {
		for r := 0; r < rows; r++ {
			du[r] = 0
		}
		return
	}
	dotRowsAVX2(&mat[0], rows, cols, &u[0], &du[0])
}

// expLanesAsm replaces every element of v with expOne of it: whole quads in
// expQuadsAVX2, the quad it stops in front of (one holding a NaN or an
// element outside the window) and the tail through expOne, as expLanes does.
func expLanesAsm(v []float64) {
	i, whole := 0, len(v)&^3
	for i < whole {
		i += 4 * expQuadsAVX2(&v[i], (whole-i)/4)
		if i < whole {
			v[i], v[i+1], v[i+2], v[i+3] = expOne(v[i]), expOne(v[i+1]), expOne(v[i+2]), expOne(v[i+3])
			i += 4
		}
	}
	for ; i < len(v); i++ {
		v[i] = expOne(v[i])
	}
}
