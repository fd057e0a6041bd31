package code

import (
	"fmt"
	"testing"
)

// BenchmarkCode measures the steady-state byte kernels — full-stripe
// encode, RMW delta update, and single-shard reconstruction — for both
// codes at a 4 KiB unit size. Runs in the CI bench smoke (-benchtime 10x)
// to catch kernels that start allocating or collapse in throughput. The
// rs rows carry the running MulAdd kernel in their name (rs-gfni/encode,
// rs-avx2/encode, rs-generic/encode), so a number is never read against
// the wrong kernel; xor never reaches it.
func BenchmarkCode(b *testing.B) {
	const k, size = 6, 4096
	for _, tc := range []struct {
		name string
		m    int
	}{{"xor", 1}, {"rs", 2}} {
		c, err := New(tc.name, tc.m)
		if err != nil {
			b.Fatal(err)
		}
		if tc.name == "rs" {
			tc.name += "-" + Kernel()
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			for j := range data[i] {
				data[i][j] = byte(i*31 + j)
			}
		}
		parity := make([]byte, size)
		delta := make([]byte, size)
		coef := make([]byte, k+tc.m)
		out := make([]byte, size)
		b.Run(fmt.Sprintf("%s/encode", tc.name), func(b *testing.B) {
			b.SetBytes(int64(k * size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.EncodeParity(tc.m-1, data, parity)
			}
		})
		b.Run(fmt.Sprintf("%s/update", tc.name), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.UpdateParity(tc.m-1, 3, parity, delta)
			}
		})
		b.Run(fmt.Sprintf("%s/reconstruct", tc.name), func(b *testing.B) {
			missing := []int{1}
			if tc.m > 1 {
				missing = []int{1, 4}
			}
			b.SetBytes(int64(k * size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.PlanReconstruct(k, missing, 1, coef); err != nil {
					b.Fatal(err)
				}
				clear(out)
				for s := 0; s < k; s++ {
					MulAdd(out, data[s%k], coef[s])
				}
			}
		})
	}
}
