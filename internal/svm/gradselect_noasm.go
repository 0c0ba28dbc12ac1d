//go:build !amd64 || purego

package svm

// gradSelect is gradSelectGo: the assembly member is compiled out on
// non-amd64 targets and under the purego build tag.
func gradSelect(grad, rowI, rowJ, labels, upPen, lowPen []float64, ydAi, ydAj float64) (ni, nj int, maxUp, minLow float64) {
	return gradSelectGo(grad, rowI, rowJ, labels, upPen, lowPen, ydAi, ydAj)
}
