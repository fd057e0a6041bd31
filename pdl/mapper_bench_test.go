package pdl

import "testing"

// benchMapper builds the benchmark geometry: a (17, 4) ring layout tiled
// 4 copies per disk.
func benchMapper(b *testing.B) *Mapper {
	b.Helper()
	res, err := Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMapper(res.Layout, 4*res.Layout.Size)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMapperMap measures the healthy-path translation: one table
// lookup plus constant arithmetic, 0 allocs/op.
func BenchmarkMapperMap(b *testing.B) {
	m := benchMapper(b)
	n := m.DataUnits()
	b.ReportAllocs()
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; i++ {
		u, err := m.Map(i % n)
		if err != nil {
			b.Fatal(err)
		}
		acc += u.Disk
	}
	_ = acc
}
