//go:build amd64 && !purego

package svm

import (
	"unsafe"

	"lrfcsvm/internal/kernel"
)

// gradSelectAVX2 is gradSelectGo over n elements, four lanes per instruction,
// in gradselect_avx2_amd64.s. It trusts n to be the length of all six arrays.
//
//go:noescape
func gradSelectAVX2(grad, rowI, rowJ, labels, upPen, lowPen *float64, n int, ydAi, ydAj float64) (ni, nj int, maxUp, minLow float64)

// useAVX2 is what kernel.Backend reports, read once: the solver runs its
// step on the assembly exactly where the scans run on theirs.
var useAVX2 = kernel.AVX2()

// gradSelect is step's gradient update and pair selection: gradSelectAVX2
// where useAVX2, gradSelectGo elsewhere. The two give the same bits.
func gradSelect(grad, rowI, rowJ, labels, upPen, lowPen []float64, ydAi, ydAj float64) (ni, nj int, maxUp, minLow float64) {
	if !useAVX2 {
		return gradSelectGo(grad, rowI, rowJ, labels, upPen, lowPen, ydAi, ydAj)
	}
	n := len(grad)
	rowI, rowJ, labels, upPen, lowPen = rowI[:n], rowJ[:n], labels[:n], upPen[:n], lowPen[:n]
	return gradSelectAVX2(unsafe.SliceData(grad), unsafe.SliceData(rowI), unsafe.SliceData(rowJ),
		unsafe.SliceData(labels), unsafe.SliceData(upPen), unsafe.SliceData(lowPen), n, ydAi, ydAj)
}
