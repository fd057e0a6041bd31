//go:build !amd64

package code

// vectorKernels returns no kernel: MulAdd is the portable loop here.
func vectorKernels() []namedKernel { return nil }
