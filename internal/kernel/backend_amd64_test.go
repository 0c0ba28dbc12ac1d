//go:build amd64 && !purego

package kernel

import (
	"math"
	"testing"
)

// expTableAVX2 is the constant table of expQuadsAVX2, defined in
// backend_avx2_amd64.s; only this test reads it from Go.
var expTableAVX2 [15]uint64

// TestExpConstantsMatchAssemblyTable holds the assembly's constants to the Go
// ones: a hand-copied bit pattern that drifted would still pass every test
// whose inputs happen not to show it.
func TestExpConstantsMatchAssemblyTable(t *testing.T) {
	want := [len(expTableAVX2)]uint64{
		math.Float64bits(expLog2E), math.Float64bits(expC1), math.Float64bits(expC2),
		math.Float64bits(expP[0]), math.Float64bits(expP[1]), math.Float64bits(expP[2]),
		math.Float64bits(expQ[0]), math.Float64bits(expQ[1]), math.Float64bits(expQ[2]), math.Float64bits(expQ[3]),
		math.Float64bits(0.5), math.Float64bits(1), math.Float64bits(expWindow),
		^uint64(0) >> 1, // every bit but the sign
		1023,            // float64 exponent bias
	}
	if expTableAVX2 != want {
		t.Fatalf("assembly table %#x\nGo constants  %#x", expTableAVX2, want)
	}
}
