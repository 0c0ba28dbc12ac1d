//go:build amd64 && !purego

package kernel

import (
	"math"
	"os"
	"slices"
	"strings"
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

// TestKernelMembers names the members this CPU holds to the reference (the
// CI logs carry it under -v) and holds the probe to the operating system's
// report where there is one: a CPU whose /proc/cpuinfo lists avx512f must
// run the avx512 member. Every member the probe finds must be under test,
// the widest of them the one Backend reports.
func TestKernelMembers(t *testing.T) {
	var names []string
	for _, k := range kernelsUnderTest() {
		names = append(names, k.name)
	}
	t.Logf("members under test: %v; Backend() = %q", names, Backend())
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if strings.HasPrefix(line, "flags") {
				flags := strings.Fields(line)
				if slices.Contains(flags, "avx2") && !hasAVX2() {
					t.Errorf("/proc/cpuinfo lists avx2, the probe reports none")
				}
				if slices.Contains(flags, "avx512f") && !hasAVX512() {
					t.Errorf("/proc/cpuinfo lists avx512f, the probe reports none")
				}
				break
			}
		}
	}
	var want []string
	switch {
	case hasAVX512():
		want = []string{"unrolled", "avx2", "avx512"}
	case hasAVX2():
		want = []string{"unrolled", "avx2"}
	default:
		want = []string{"unrolled"}
	}
	if !slices.Equal(names, want) {
		t.Errorf("members under test %v, want %v", names, want)
	}
	if got := Backend(); got != want[len(want)-1] {
		t.Errorf("Backend() = %q, want the widest member %q", got, want[len(want)-1])
	}
	if AVX2() != hasAVX2() {
		t.Errorf("AVX2() = %v on a CPU whose probe reports AVX2 %v", AVX2(), hasAVX2())
	}
}
