package code

// useAVX2 and useGFNI are set once by initKernel; see Kernel. useGFNI
// implies useAVX2, and MulAdd runs the GFNI kernel when both are set.
var useAVX2, useGFNI bool

// nibTab holds, per coefficient c, the two 16-entry product tables the
// AVX2 kernel shuffles through: bytes 0..15 are c*x for the low nibble
// x, bytes 16..31 are c*(x<<4) for the high nibble, so c*b =
// lo[b&15] ^ hi[b>>4] by distributivity. 8 KiB, filled only when the
// CPU can run the kernel.
var nibTab [256][32]byte

// gfniTab holds, per coefficient c, the 8×8 bit matrix of "multiply by
// c" in the layout VGF2P8AFFINEQB reads: output bit i is the parity of
// byte 7-i of the qword ANDed with the input byte, so bit k of byte 7-i
// is bit i of c*2^k. 2 KiB, filled only when the CPU can run the kernel.
var gfniTab [256]uint64

// initKernel runs at the end of the field-table init: it derives the
// tables of each vector kernel the CPU and the OS support from mulTab
// and picks the fastest of them.
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
	if !cpuHasGFNI() {
		return
	}
	for c := range gfniTab {
		gfniTab[c] = gfniMatrix(mulTab[c<<8 : c<<8+256])
	}
	useGFNI = true
}

// gfniMatrix returns the affine-instruction matrix of the coefficient
// whose product row is row (row[x] = c*x).
func gfniMatrix(row []byte) uint64 {
	var m uint64
	for i := 0; i < 8; i++ {
		for k := 0; k < 8; k++ {
			if row[1<<k]>>i&1 != 0 {
				m |= 1 << (8*(7-i) + k)
			}
		}
	}
	return m
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

// cpuHasGFNI reports whether the CPU implements the Galois Field New
// Instructions (CPUID leaf 7, ECX bit 8). Their VEX.256 forms also need
// what cpuHasAVX2 checks, which initKernel has already established.
func cpuHasGFNI() bool {
	const gfni = 1 << 8
	_, _, ecx, _ := cpuid(7, 0)
	return ecx&gfni != 0
}

// mulAddVec runs the fastest vector kernel over the leading whole
// 32-byte blocks of src and returns how many bytes it handled (0
// without AVX2).
func mulAddVec(dst, src []byte, c byte) int {
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	switch {
	case useGFNI:
		mulAddGFNI(gfniTab[c], &dst[0], &src[0], n)
	case useAVX2:
		mulAddAVX2(&nibTab[c], &dst[0], &src[0], n)
	default:
		return 0
	}
	return n
}

// mulAddAVX2 computes dst[i] ^= lo[src[i]&15] ^ hi[src[i]>>4] for i in
// [0, n); n must be a positive multiple of 32. Loads and stores are
// unaligned. Implemented in gf256_amd64.s.
//
//go:noescape
func mulAddAVX2(tab *[32]byte, dst, src *byte, n int)

// mulAddGFNI computes dst[i] ^= mat·src[i] for i in [0, n), mat being a
// gfniTab entry; n must be a positive multiple of 32. Loads and stores
// are unaligned. Implemented in gf256_amd64.s.
//
//go:noescape
func mulAddGFNI(mat uint64, dst, src *byte, n int)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)
