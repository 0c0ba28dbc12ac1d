//go:build purego

package kernel

import "testing"

// TestPuregoFallback checks the assembly-free build: the assembly kernels
// are compiled out, so the scans run on the pure-Go pair.
func TestPuregoFallback(t *testing.T) {
	if got := Backend(); got != "unrolled" {
		t.Fatalf("Backend() = %q under purego, want %q", got, "unrolled")
	}
}
