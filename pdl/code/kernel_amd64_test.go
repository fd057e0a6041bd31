package code

import (
	"os"
	"strings"
	"testing"
)

// TestKernelMatchesCPU keeps a silent fallback from shipping: when the
// CPU reports AVX2 and the OS has enabled the YMM state, Kernel() must
// be "avx2". The feature bits are read here straight from CPUID/XGETBV,
// and on Linux also from the kernel's own view in /proc/cpuinfo, not
// through the dispatcher's cpuHasAVX2.
func TestKernelMatchesCPU(t *testing.T) {
	want := "generic"
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ := cpuid(1, 0)
		_, ebx7, _, _ := cpuid(7, 0)
		if ecx1&(1<<27) != 0 && ecx1&(1<<28) != 0 && ebx7&(1<<5) != 0 {
			if xcr0, _ := xgetbv(); xcr0&6 == 6 {
				want = "avx2"
			}
		}
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, CPUID/XGETBV say %q", got, want)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "flags") && strings.Contains(line+" ", " avx2 ") && Kernel() != "avx2" {
				t.Fatalf("/proc/cpuinfo lists avx2 but Kernel() = %q", Kernel())
			}
		}
	}
	t.Logf("kernel: %s", Kernel())
}
