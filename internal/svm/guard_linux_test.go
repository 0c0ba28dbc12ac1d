//go:build linux

package svm

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedCopy returns a copy of v in memory that a page no access is
// permitted to bounds on one side: flush against the page after it when
// atEnd, else starting right after the page before it. A routine that
// touches one element outside its slice on that side dies of SIGSEGV
// instead of reading or clobbering whatever the heap holds there.
func guardedCopy(t *testing.T, v []float64, atEnd bool) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (len(v)*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	for _, guard := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	off := page
	if atEnd {
		off = page + size - len(v)*8
	}
	g := unsafe.Slice((*float64)(unsafe.Pointer(&mem[off])), len(v))
	copy(g, v)
	return g
}

// TestGradSelectStaysInsideItsSlices runs gradSelect with all six arrays
// against guard pages, on each side in turn, over lengths that take the
// eight-element loop, the masked tail quads or both, and checks what it
// wrote and returned against the Go member on ordinary memory.
func TestGradSelectStaysInsideItsSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 36, 56, 63, 64, 130} {
		for _, atEnd := range []bool{true, false} {
			c := newGradSelectCase(rng, n, gsTies|gsSpecial)
			checkGradSelect(t, fmt.Sprintf("n=%d guard at end %v", n, atEnd), c, gradSelectCase{
				grad: guardedCopy(t, c.grad, atEnd), rowI: guardedCopy(t, c.rowI, atEnd),
				rowJ: guardedCopy(t, c.rowJ, atEnd), labels: guardedCopy(t, c.labels, atEnd),
				upPen: guardedCopy(t, c.upPen, atEnd), lowPen: guardedCopy(t, c.lowPen, atEnd),
			})
		}
	}
}
