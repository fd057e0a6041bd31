// Package code implements the erasure codes a parity-declustered array
// can run over its stripes: the parity policy is a Code — how many parity
// units a stripe carries, how they are computed from the data units, how
// they absorb a small-write delta, and how any m lost units are
// reconstructed from survivors. Two implementations ship: XOR (single
// parity, byte-identical to the classic RAID-5 arithmetic every layer
// used before this package existed) and ReedSolomon over GF(2^8), a
// systematic MDS code tolerating up to 8 simultaneous unit losses per
// stripe.
//
// The byte kernels (the per-parity encode/update loops) all funnel
// through MulAdd, which is table-driven — one flat 64 KiB multiplication
// table, one 256-byte inverse table, and on amd64 one of two assembly
// kernels derived from it: with GFNI, a 2 KiB table of 8×8 bit matrices
// feeding one VGF2P8AFFINEQB per 32 bytes; with AVX2 but no GFNI, an
// 8 KiB set of split-nibble tables feeding two VPSHUFB lookups (Kernel
// names the one in use) — and allocation-free in steady state, so the
// pdl/store hot paths stay at 0 allocs/op (TestCodeHotPathAllocs pins
// this). Like repro/pdl/layout, this package is part of the public API
// and depends on nothing under internal/.
package code

import "crypto/subtle"

// Poly is the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d) defining the
// package's GF(2^8) representation — the conventional choice of storage
// erasure codes, fixed forever because generator coefficients derived
// from it are baked into on-disk parity bytes.
const Poly = 0x11d

// Field tables, built once at init: exponentials of the generator 2,
// logarithms, the flat 256x256 product table the byte kernels index, and
// multiplicative inverses.
var (
	expTab [510]byte // expTab[i] = 2^i, doubled so Mul needs no mod
	logTab [256]byte
	mulTab [65536]byte // mulTab[a<<8|b] = a*b
	invTab [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTab[i] = byte(x)
		expTab[i+255] = byte(x)
		logTab[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTab[a<<8|b] = expTab[int(logTab[a])+int(logTab[b])]
		}
		invTab[a] = expTab[255-int(logTab[a])]
	}
	initKernel()
}

// Mul returns the GF(2^8) product a*b.
func Mul(a, b byte) byte { return mulTab[int(a)<<8|int(b)] }

// Inv returns a^-1, with ok=false for a = 0.
func Inv(a byte) (byte, bool) {
	if a == 0 {
		return 0, false
	}
	return invTab[a], true
}

// Div returns a/b, with ok=false for b = 0.
func Div(a, b byte) (byte, bool) {
	if b == 0 {
		return 0, false
	}
	return mulTab[int(a)<<8|int(invTab[b])], true
}

// MulNoTable multiplies by explicit carry-less polynomial arithmetic
// modulo Poly — the reference implementation the tables are cross-checked
// against for all 65536 pairs (see TestGFTablesMatchPolynomial).
func MulNoTable(a, b byte) byte {
	var r int
	x, y := int(a), int(b)
	for i := 0; i < 8; i++ {
		if y&(1<<i) != 0 {
			r ^= x << i
		}
	}
	for i := 15; i >= 8; i-- {
		if r&(1<<i) != 0 {
			r ^= Poly << (i - 8)
		}
	}
	return byte(r)
}

// MulAdd accumulates dst ^= c*src byte-wise: the fundamental erasure-code
// kernel. c = 0 is a no-op and c = 1 a plain XOR, so XOR-coded and
// unit-coefficient work never pays the multiply. src and dst must have
// equal length and may not overlap (dst == src aliasing is allowed only
// for c = 0 or 1). The platform's vector kernel, where there is one (see
// Kernel), takes the leading whole blocks; the portable loop finishes the
// tail, and is the whole implementation everywhere else.
func MulAdd(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	if len(src) != len(dst) {
		panic("code: MulAdd: length mismatch")
	}
	n := mulAddVec(dst, src, c)
	mulAddGeneric(dst[n:], src[n:], c)
}

// mulAddGeneric is the portable MulAdd loop over one row of mulTab: the
// reference every vector kernel is differentially tested against.
func mulAddGeneric(dst, src []byte, c byte) {
	row := mulTab[int(c)<<8 : int(c)<<8+256]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// Kernel names the MulAdd implementation this process runs for
// coefficients other than 0 and 1: "gfni" (amd64 with GFNI and AVX2
// enabled by the OS: one affine bit-matrix multiply per 32 bytes),
// "avx2" (amd64 with AVX2 but no GFNI: split-nibble VPSHUFB lookups) or
// "generic" (the portable table loop). It is chosen once at init from
// what the CPU reports; there is nothing to configure.
func Kernel() string {
	switch {
	case useGFNI:
		return "gfni"
	case useAVX2:
		return "avx2"
	}
	return "generic"
}
