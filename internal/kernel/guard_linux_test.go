//go:build linux

package kernel

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float64 that end flush against a page no access is
// permitted to, filled from fill: a routine that reads or writes one element
// past its slice dies of SIGSEGV instead of passing on whatever the heap
// holds there.
func guardedFloats(t *testing.T, n int, fill func() float64) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	v := unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-n*8])), n)
	for i := range v {
		v[i] = fill()
	}
	return v
}

// TestBackendsStayInsideTheirSlices runs the four routines of every backend
// with each operand ending at a guard page — the matrix, both support
// vectors, the row norms and both outputs of pairArgs, the matrix, the
// vector and the output of one, the scores and both columns of fold, the
// column of exp — over shapes that take the vector loops, the scalar tails,
// the four-row groups, the overlapping last group and the sub-four tile, and
// checks the results against the pure-Go routines on ordinary memory.
func TestBackendsStayInsideTheirSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nU, nV, negGamma, cA, cB = 1.25, 0.75, -0.5, 0.625, -1.5
	for _, k := range kernelsUnderTest() {
		for _, cols := range []int{1, 3, 4, 7, 36} {
			for _, rows := range []int{1, 4, 5, 6, 7, 8, 9, rbfBlockRows} {
				mat := guardedFloats(t, rows*cols, rng.NormFloat64)
				u := guardedFloats(t, cols, rng.NormFloat64)
				v := guardedFloats(t, cols, rng.NormFloat64)
				xn := guardedFloats(t, rows, rng.Float64)
				du := guardedFloats(t, rows, rng.NormFloat64)
				dv := guardedFloats(t, rows, rng.NormFloat64)
				out := guardedFloats(t, rows, rng.NormFloat64)
				label := fmt.Sprintf("%s %dx%d", k.name, rows, cols)

				wantU, wantV := make([]float64, rows), make([]float64, rows)
				pairArgsGo(mat, rows, cols, u, v, xn, nU, nV, negGamma, wantU, wantV)
				k.pairArgs(mat, rows, cols, u, v, xn, nU, nV, negGamma, du, dv)
				checkParity(t, label+" pairArgs u", du, wantU)
				checkParity(t, label+" pairArgs v", dv, wantV)

				wantOut := append([]float64(nil), out...)
				foldGo(wantOut, wantU, wantV, cA, cB)
				k.fold(out, du, dv, cA, cB)
				checkParity(t, label+" fold", out, wantOut)

				dotRowsGo(mat, rows, cols, v, wantV)
				k.one(mat, rows, cols, v, du)
				checkParity(t, label+" one", du, wantV)
			}
		}
		for n := 0; n <= rbfBlockRows+7; n++ {
			col := guardedFloats(t, n, func() float64 { return 800*rng.Float64() - 750 })
			want := make([]float64, n)
			for i, x := range col {
				want[i] = expOne(x)
			}
			k.exp(col)
			checkParity(t, fmt.Sprintf("%s exp len %d", k.name, n), col, want)
		}
	}
}
