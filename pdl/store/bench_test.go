package store_test

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/pdl"
	"repro/pdl/store"
)

// benchGeometry matches pdl/plan's benchmarks: ring v=17 k=4, 4 layout copies
// per disk, 4 KiB units (~1 MiB per disk).
const benchUnitSize = 4096

func benchStore(b *testing.B) *store.Store {
	b.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.Open(res, 4*res.Layout.Size, benchUnitSize, nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, benchUnitSize)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Write(i, payload(buf, i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// failedHomes returns logical addresses whose home unit lies on disk f,
// i.e. the worst case for degraded reads.
func failedHomes(b *testing.B, s *store.Store, f int) []int {
	b.Helper()
	var homes []int
	for i := 0; i < s.Capacity(); i++ {
		u, err := s.Mapper().Map(i)
		if err != nil {
			b.Fatal(err)
		}
		if u.Disk == f {
			homes = append(homes, i)
		}
	}
	return homes
}

func BenchmarkStoreRead(b *testing.B) {
	s := benchStore(b)
	dst := make([]byte, benchUnitSize)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(i%s.Capacity(), dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReadParallel(b *testing.B) {
	s := benchStore(b)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, benchUnitSize)
		for pb.Next() {
			logical := int(next.Add(1)) % s.Capacity()
			if err := s.Read(logical, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreDegradedRead(b *testing.B) {
	s := benchStore(b)
	if err := s.Fail(3); err != nil {
		b.Fatal(err)
	}
	homes := failedHomes(b, s, 3)
	dst := make([]byte, benchUnitSize)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(homes[i%len(homes)], dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	s := benchStore(b)
	src := make([]byte, benchUnitSize)
	payload(src, 99)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(i%s.Capacity(), src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreWriteParallel(b *testing.B) {
	s := benchStore(b)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := make([]byte, benchUnitSize)
		payload(src, 7)
		for pb.Next() {
			logical := int(next.Add(1)) % s.Capacity()
			if err := s.Write(logical, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreFullStripeWriteAt(b *testing.B) {
	s := benchStore(b)
	// One stripe's data payload (k-1 units), stripe-aligned: takes the
	// Condition 5 no-preread path.
	span := 3 * benchUnitSize
	src := make([]byte, span)
	payload(src, 5)
	stripes := s.Size() / int64(span)
	b.SetBytes(int64(span))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i) % stripes * int64(span)
		if _, err := s.WriteAt(src, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWriteVec measures the batch entry point: 32 sequential
// small writes per call, grouped per stripe with full-stripe promotion
// (compare per-unit ns against BenchmarkStoreWrite).
func BenchmarkStoreWriteVec(b *testing.B) {
	s := benchStore(b)
	const depth = 32
	ops := make([]store.VecOp, depth)
	for j := range ops {
		ops[j].Buf = payload(make([]byte, benchUnitSize), j)
	}
	b.SetBytes(int64(depth * benchUnitSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j].Logical = (i*depth + j) % s.Capacity()
		}
		if err := s.WriteVec(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReadVec measures the read batch entry point: 32
// sequential reads per call, one lock pass per stripe.
func BenchmarkStoreReadVec(b *testing.B) {
	s := benchStore(b)
	const depth = 32
	ops := make([]store.VecOp, depth)
	for j := range ops {
		ops[j].Buf = make([]byte, benchUnitSize)
	}
	b.SetBytes(int64(depth * benchUnitSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j].Logical = (i*depth + j) % s.Capacity()
		}
		if err := s.ReadVec(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBackendStore builds the bench-geometry store over real disk
// files, one per disk, created by mk in a fresh temp dir.
func benchBackendStore(b *testing.B, mk func(path string, size int64) (store.Backend, error)) *store.Store {
	b.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	diskUnits := 4 * res.Layout.Size
	diskBytes := int64(diskUnits) * benchUnitSize
	dir := b.TempDir()
	backends := make([]store.Backend, res.Layout.V)
	for d := range backends {
		bk, err := mk(filepath.Join(dir, fmt.Sprintf("disk%02d.dat", d)), diskBytes)
		if err != nil {
			b.Fatal(err)
		}
		backends[d] = bk
	}
	s, err := store.Open(res, diskUnits, benchUnitSize, backends)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, benchUnitSize)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Write(i, payload(buf, i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func benchFileStore(b *testing.B) *store.Store {
	return benchBackendStore(b, func(path string, size int64) (store.Backend, error) {
		return store.CreateFileDisk(path, size)
	})
}

func benchMmapStore(b *testing.B) *store.Store {
	return benchBackendStore(b, func(path string, size int64) (store.Backend, error) {
		return store.CreateMmapDisk(path, size)
	})
}

// The backend comparison pairs: the same healthy unit read/write loops
// as BenchmarkStoreRead/BenchmarkStoreWrite, against file-backed disks
// over positioned I/O (FileDisk) and over a shared memory mapping
// (MmapDisk), to show the spread between backends.
func BenchmarkStoreReadFileDisk(b *testing.B)  { benchReadLoop(b, benchFileStore(b)) }
func BenchmarkStoreReadMmapDisk(b *testing.B)  { benchReadLoop(b, benchMmapStore(b)) }
func BenchmarkStoreWriteFileDisk(b *testing.B) { benchWriteLoop(b, benchFileStore(b)) }
func BenchmarkStoreWriteMmapDisk(b *testing.B) { benchWriteLoop(b, benchMmapStore(b)) }

func benchReadLoop(b *testing.B, s *store.Store) {
	dst := make([]byte, benchUnitSize)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Read(i%s.Capacity(), dst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWriteLoop(b *testing.B, s *store.Store) {
	src := make([]byte, benchUnitSize)
	payload(src, 99)
	b.SetBytes(benchUnitSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(i%s.Capacity(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRebuild measures the online reconstruction rate: bytes of
// the failed disk rebuilt per second (no foreground load).
func BenchmarkStoreRebuild(b *testing.B) {
	s := benchStore(b)
	diskBytes := int64(s.Mapper().DiskUnits()) * benchUnitSize
	spare := store.NewMemDisk(diskBytes)
	b.SetBytes(diskBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Fail(3); err != nil {
			b.Fatal(err)
		}
		old := s.DiskBackend(3)
		if err := s.Rebuild(spare); err != nil {
			b.Fatal(err)
		}
		spare = old.(*store.MemDisk)
	}
}
