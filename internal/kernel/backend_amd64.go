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
func dotPairRowsAVX2(mat *float64, rows, cols int, u, v, du, dv *float64)

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
	return dotKernels{name: "avx2", pair: dotPairRowsAsm, one: dotRowsAsm, exp: expLanesAsm}, true
}

func dotPairRowsAsm(mat []float64, rows, cols int, u, v, du, dv []float64) {
	if rows == 0 {
		return
	}
	if cols == 0 {
		for r := 0; r < rows; r++ {
			du[r], dv[r] = 0, 0
		}
		return
	}
	dotPairRowsAVX2(&mat[0], rows, cols, &u[0], &v[0], &du[0], &dv[0])
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
