package code

import (
	"os"
	"strings"
	"testing"
)

// vectorKernels returns each vector kernel this CPU can run, called by
// name over the leading whole 32-byte blocks of src the way mulAddVec
// calls it; each returns how many bytes it handled.
func vectorKernels() []namedKernel {
	var ks []namedKernel
	if useAVX2 {
		ks = append(ks, namedKernel{"avx2", func(dst, src []byte, c byte) int {
			n := len(src) &^ 31
			if n > 0 {
				mulAddAVX2(&nibTab[c], &dst[0], &src[0], n)
			}
			return n
		}})
	}
	if useGFNI {
		ks = append(ks, namedKernel{"gfni", func(dst, src []byte, c byte) int {
			n := len(src) &^ 31
			if n > 0 {
				mulAddGFNI(gfniTab[c], &dst[0], &src[0], n)
			}
			return n
		}})
	}
	return ks
}

// TestKernelMatchesCPU keeps a silent fallback from shipping: when the
// CPU reports AVX2 and the OS has enabled the YMM state, Kernel() must
// be "avx2", or "gfni" when the CPU also reports GFNI. The feature bits
// are read here straight from CPUID/XGETBV, and on Linux also from the
// kernel's own view in /proc/cpuinfo, not through the dispatcher's
// cpuHasAVX2 and cpuHasGFNI.
func TestKernelMatchesCPU(t *testing.T) {
	want := "generic"
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ := cpuid(1, 0)
		_, ebx7, ecx7, _ := cpuid(7, 0)
		if ecx1&(1<<27) != 0 && ecx1&(1<<28) != 0 && ebx7&(1<<5) != 0 {
			if xcr0, _ := xgetbv(); xcr0&6 == 6 {
				want = "avx2"
				if ecx7&(1<<8) != 0 {
					want = "gfni"
				}
			}
		}
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, CPUID/XGETBV say %q", got, want)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if !strings.HasPrefix(line, "flags") {
				continue
			}
			avx2, gfni := strings.Contains(line+" ", " avx2 "), strings.Contains(line+" ", " gfni ")
			if avx2 && gfni && Kernel() != "gfni" {
				t.Fatalf("/proc/cpuinfo lists avx2 and gfni but Kernel() = %q", Kernel())
			}
			if avx2 && Kernel() == "generic" {
				t.Fatalf("/proc/cpuinfo lists avx2 but Kernel() = %q", Kernel())
			}
		}
	}
	t.Logf("kernel: %s", Kernel())
}
