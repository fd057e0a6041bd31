package code

// useAVX2 is set once by initKernel; see Kernel.
var useAVX2 bool

// nibTab holds, per coefficient c, the two 16-entry product tables the
// AVX2 kernel shuffles through: bytes 0..15 are c*x for the low nibble
// x, bytes 16..31 are c*(x<<4) for the high nibble, so c*b =
// lo[b&15] ^ hi[b>>4] by distributivity. 8 KiB, filled only when the
// kernel will run.
var nibTab [256][32]byte

// initKernel runs at the end of the field-table init: it picks the AVX2
// kernel when the CPU and the OS both support it and derives the nibble
// tables from mulTab.
func initKernel() {
	if !cpuHasAVX2() {
		return
	}
	for c := range nibTab {
		row := mulTab[c<<8 : c<<8+256]
		for x := 0; x < 16; x++ {
			nibTab[c][x] = row[x]
			nibTab[c][16+x] = row[x<<4]
		}
	}
	useAVX2 = true
}

// cpuHasAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements AVX and AVX2, and the OS saves the YMM state (OSXSAVE set
// and XCR0 enabling both the SSE and AVX register files).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// mulAddVec runs the AVX2 kernel over the leading whole 32-byte blocks
// of src and returns how many bytes it handled (0 without AVX2).
func mulAddVec(dst, src []byte, c byte) int {
	n := len(src) &^ 31
	if !useAVX2 || n == 0 {
		return 0
	}
	mulAddAVX2(&nibTab[c], &dst[0], &src[0], n)
	return n
}

// mulAddAVX2 computes dst[i] ^= lo[src[i]&15] ^ hi[src[i]>>4] for i in
// [0, n); n must be a positive multiple of 32. Loads and stores are
// unaligned. Implemented in gf256_amd64.s.
//
//go:noescape
func mulAddAVX2(tab *[32]byte, dst, src *byte, n int)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)
