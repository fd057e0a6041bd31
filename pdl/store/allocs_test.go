//go:build !race

// The allocs regression gates (CI) for the batch entry points — ReadVec
// and WriteVec promise zero allocations per call in steady state (the
// single-op gate lives in TestHotPathAllocs) — and for the MmapDisk
// healthy read path. Excluded under -race: sync.Pool randomly drops
// items under the race detector.

package store_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/pdl"
	"repro/pdl/store"
)

func TestVecHotPathAllocs(t *testing.T) {
	const unitSize = 4096
	const depth = 32
	s := mustStore(t, 17, 4, 4, unitSize)
	wops := make([]store.VecOp, depth)
	rops := make([]store.VecOp, depth)
	for j := 0; j < depth; j++ {
		wops[j].Buf = payload(make([]byte, unitSize), j)
		rops[j].Buf = make([]byte, unitSize)
	}
	i := 0
	setAddrs := func(ops []store.VecOp) {
		for j := range ops {
			ops[j].Logical = (i*depth + j) % s.Capacity()
		}
		i++
	}
	// Warm the pool's vec scratch.
	for w := 0; w < 8; w++ {
		setAddrs(wops)
		if err := s.WriteVec(wops); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadVec(rops); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		setAddrs(wops)
		if err := s.WriteVec(wops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteVec allocates %v/batch, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		setAddrs(rops)
		if err := s.ReadVec(rops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadVec allocates %v/batch, want 0", n)
	}
	// Partial pieces: each op writes bytes [100, 1100) of its unit.
	for j := range wops {
		wops[j].Within, wops[j].Buf = 100, wops[j].Buf[:1000]
	}
	if n := testing.AllocsPerRun(200, func() {
		setAddrs(wops)
		if err := s.WriteVec(wops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("partial-piece WriteVec allocates %v/batch, want 0", n)
	}
}

// backendStore builds a (17, 4) store of four layout copies over one
// file-backed disk per disk, made by mk.
func backendStore(t *testing.T, unitSize int, mk func(path string, size int64) (store.Backend, error)) (*store.Store, []store.Backend) {
	t.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		t.Fatal(err)
	}
	diskUnits := 4 * res.Layout.Size
	dir := t.TempDir()
	backends := make([]store.Backend, res.Layout.V)
	for d := range backends {
		backends[d], err = mk(filepath.Join(dir, fmt.Sprintf("disk%02d.dat", d)), int64(diskUnits)*int64(unitSize))
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(res, diskUnits, unitSize, backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, backends
}

// windowAllocs checks that a WriteAt of two windows of whole stripes —
// one vectored write per disk per window — allocates nothing.
func windowAllocs(t *testing.T, s *store.Store, name string) {
	t.Helper()
	units, err := s.Mapper().AppendStripeUnits(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := len(units) - s.Mapper().ParityShards()
	p := payload(make([]byte, 2*store.RebuildChunk*k*s.UnitSize()), 3)
	if _, err := s.WriteAt(p, 0); err != nil { // warm the pooled window state
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.WriteAt(p, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("two-window %s WriteAt allocates %v/op, want 0", name, n)
	}
}

// TestMmapHotPathAllocs pins the acceptance criterion for the mmap
// backend: a healthy Read or Write against MmapDisk disks is locks, a
// plan lookup, and memory copies — 0 allocs/op, like MemDisk — and a
// bulk WriteAt, a pwrite, and a two-window WriteAt, a pwritev per disk
// per window, allocate nothing either.
func TestMmapHotPathAllocs(t *testing.T) {
	const unitSize = 4096
	s, backends := backendStore(t, unitSize, func(path string, size int64) (store.Backend, error) {
		return store.CreateMmapDisk(path, size)
	})
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	payload(src, 7)
	for i := 0; i < 64; i++ {
		if err := s.Write(i%s.Capacity(), src); err != nil {
			t.Fatal(err)
		}
		if err := s.Read(i%s.Capacity(), dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Read(i%s.Capacity(), dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("healthy MmapDisk Read allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Write(i%s.Capacity(), src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("healthy MmapDisk Write allocates %v/op, want 0", n)
	}
	// A rebuild-run-sized write goes through the file, not the mapping.
	bulk := make([]byte, 64*unitSize)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := backends[0].WriteAt(bulk, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("bulk MmapDisk.WriteAt allocates %v/op, want 0", n)
	}
	windowAllocs(t, s, "MmapDisk")
}

// TestFileWindowAllocs is TestMmapHotPathAllocs's two-window row on
// FileDisk: a pwritev per disk per window allocates nothing.
func TestFileWindowAllocs(t *testing.T) {
	s, _ := backendStore(t, 4096, func(path string, size int64) (store.Backend, error) {
		return store.CreateFileDisk(path, size)
	})
	windowAllocs(t, s, "FileDisk")
}

// TestRebuildAllocs pins that Rebuild streams its per-stripe plans
// through pooled scratch instead of materialising them: a Fail + Rebuild
// cycle costs the same handful of allocations (the failed-set snapshots,
// the fan-out's shared state) on a 1-copy and an 8-copy array — eight
// times the stripes — for XOR and for Reed–Solomon with a second disk
// down, with one worker and with four. testing.AllocsPerRun pins
// GOMAXPROCS to 1, which is the one-worker row; the four-worker row counts
// mallocs itself and takes the cheapest of its cycles, the one where no
// worker found the scratch pool empty.
func TestRebuildAllocs(t *testing.T) {
	const unitSize = 512
	for _, m := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			setProcs(t, workers)
			var perCopies [2]float64
			for i, copies := range []int{1, 8} {
				res, err := pdl.Build(17, 5, pdl.WithParityShards(m))
				if err != nil {
					t.Fatal(err)
				}
				s, err := store.Open(res, copies*res.Layout.Size, unitSize, nil)
				if err != nil {
					t.Fatal(err)
				}
				if m == 2 {
					if err := s.Fail(9); err != nil {
						t.Fatal(err)
					}
				}
				var spare store.Backend = store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize)
				cycle := func() {
					if err := s.Fail(3); err != nil {
						t.Fatal(err)
					}
					old := s.DiskBackend(3)
					if err := s.Rebuild(spare); err != nil {
						t.Fatal(err)
					}
					spare = old
				}
				if workers == 1 {
					cycle() // warm the pooled planner and plan storage
					perCopies[i] = testing.AllocsPerRun(20, cycle)
					continue
				}
				var ms runtime.MemStats
				for run := 0; run < 40; run++ {
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					cycle()
					runtime.ReadMemStats(&ms)
					if n := float64(ms.Mallocs - before); run == 0 || n < perCopies[i] {
						perCopies[i] = n
					}
				}
			}
			if limit := float64(8 + 2*workers); perCopies[0] != perCopies[1] || perCopies[1] > limit {
				t.Errorf("m=%d, %d workers: Fail+Rebuild allocates %v on 1 copy, %v on 8 copies; want equal and <= %v",
					m, workers, perCopies[0], perCopies[1], limit)
			}
		}
	}
}
