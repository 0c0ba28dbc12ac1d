//go:build !amd64 || purego

package kernel

// asmKernels reports no assembly members: they are compiled out on non-amd64
// targets and under the purego build tag.
func asmKernels() []dotKernels {
	return nil
}
