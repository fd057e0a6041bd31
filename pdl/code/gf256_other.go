//go:build !amd64

package code

// No vector kernel on this GOARCH: MulAdd is the portable loop.
const useAVX2, useGFNI = false, false

func initKernel() {}

func mulAddVec(dst, src []byte, c byte) int { return 0 }
