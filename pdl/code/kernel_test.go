package code

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// aligned32 returns a fresh buffer and the offset in it of a length-n
// window that starts mis bytes past a 32-byte boundary and has at least
// guard bytes of backing either side.
func aligned32(n, mis, guard int) (backing []byte, start int) {
	backing = make([]byte, guard+32+mis+n+guard)
	start = guard + (32-int(uintptr(unsafe.Pointer(&backing[guard]))&31))&31 + mis
	return backing, start
}

// TestMulAddKernelsAgree is the differential net under the vector
// kernel: for every coefficient and a seeded sample of (length, source
// misalignment, destination misalignment) triples — block-boundary
// lengths always included — MulAdd (whatever Kernel() dispatches to),
// the portable loop called by name, and the carry-less polynomial
// reference must agree byte for byte, leave src alone, and touch nothing
// outside dst[:n] (guard canaries either side).
func TestMulAddKernelsAgree(t *testing.T) {
	const guard = 64
	const canary = 0xA5
	rng := rand.New(rand.NewSource(12))
	edges := []int{0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 4095, 4096, 4200}
	for c := 0; c < 256; c++ {
		var ref [256]byte
		for x := range ref {
			ref[x] = MulNoTable(byte(c), byte(x))
		}
		for i := 0; i < len(edges)+24; i++ {
			n := rng.Intn(4201)
			if i < len(edges) {
				n = edges[i]
			}
			srcMis, dstMis := rng.Intn(32), rng.Intn(32)
			sb, so := aligned32(n, srcMis, 0)
			src := sb[so : so+n : so+n]
			rng.Read(src)
			srcWas := append([]byte(nil), src...)
			backing, off := aligned32(n, dstMis, guard)
			for j := range backing {
				backing[j] = canary
			}
			dst := backing[off : off+n : off+n]
			rng.Read(dst)
			generic := append([]byte(nil), dst...)
			want := append([]byte(nil), dst...)
			for j, s := range src {
				want[j] ^= ref[s]
			}

			MulAdd(dst, src, byte(c))
			mulAddGeneric(generic, src, byte(c))

			if !bytes.Equal(dst, want) {
				t.Fatalf("c=%d n=%d src+%d dst+%d: %s kernel differs from polynomial reference", c, n, srcMis, dstMis, Kernel())
			}
			if !bytes.Equal(generic, want) {
				t.Fatalf("c=%d n=%d: portable loop differs from polynomial reference", c, n)
			}
			if !bytes.Equal(src, srcWas) {
				t.Fatalf("c=%d n=%d src+%d dst+%d: src modified", c, n, srcMis, dstMis)
			}
			for j, b := range backing {
				if (j < off || j >= off+n) && b != canary {
					t.Fatalf("c=%d n=%d src+%d dst+%d: byte %d outside dst[:n] overwritten", c, n, srcMis, dstMis, j-off)
				}
			}
		}
	}
}

// TestMulAddAliasing pins the dst == src contract, which holds only for
// the two coefficients that never reach a multiply kernel: c = 0 leaves
// the buffer alone, c = 1 XORs it with itself.
func TestMulAddAliasing(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 4096} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i*13 + 1)
		}
		was := append([]byte(nil), buf...)
		MulAdd(buf, buf, 0)
		if !bytes.Equal(buf, was) {
			t.Fatalf("n=%d: MulAdd(x, x, 0) changed x", n)
		}
		MulAdd(buf, buf, 1)
		if !bytes.Equal(buf, make([]byte, n)) {
			t.Fatalf("n=%d: MulAdd(x, x, 1) is not all zero", n)
		}
	}
}

// TestMulAddLengthMismatchPanics pins the contract check in front of the
// kernels: unequal lengths must panic, not read or write out of range.
func TestMulAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulAdd with len(dst) != len(src) did not panic")
		}
	}()
	MulAdd(make([]byte, 64), make([]byte, 96), 7)
}
