package store_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// mustStore builds a MemDisk-backed store for (v, k) with the given
// number of layout copies per disk.
func mustStore(t *testing.T, v, k, copies, unitSize int) *store.Store {
	t.Helper()
	res, err := pdl.Build(v, k)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, copies*res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// payload fills a deterministic, unit-distinct pattern.
func payload(buf []byte, seed int) []byte {
	for j := range buf {
		buf[j] = byte(seed*31 + j*7 + 1)
	}
	return buf
}

// TestStoreMatchesDataModel is the reference-model property test: the
// concurrent store, driven sequentially, must agree byte-for-byte with
// pdl/layout's single-threaded Data engine — on healthy reads, degraded
// reads for every failed disk, and the rebuilt disk contents — under
// every code the store accepts at the layout's parity count, not just the
// default one (rs at m = 1 shares XOR's plans but not its coefficients).
func TestStoreMatchesDataModel(t *testing.T) {
	for _, tc := range codeRows(t) {
		t.Run(tc.name, func(t *testing.T) { testStoreMatchesDataModel(t, tc) })
	}
}

func testStoreMatchesDataModel(t *testing.T, tc codeRow) {
	const unitSize = 16
	s, l := tc.newStore(t, unitSize)
	model, err := layout.NewDataCode(l, unitSize, tc.code)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, unitSize)
	got := make([]byte, unitSize)
	for i := 0; i < 4*s.Capacity(); i++ {
		logical := rng.Intn(s.Capacity())
		if rng.Intn(3) == 0 {
			want, err := model.ReadLogical(logical)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Read(logical, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read logical %d: store %x != model %x", logical, got, want)
			}
			continue
		}
		payload(buf, rng.Int())
		if err := s.Write(logical, buf); err != nil {
			t.Fatal(err)
		}
		if err := model.WriteLogical(logical, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := model.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	// Every failure mode: degraded reads must equal the model's, and the
	// online rebuild must reproduce the model's disk bytes exactly.
	for f := 0; f < l.V; f++ {
		if err := s.Fail(f); err != nil {
			t.Fatal(err)
		}
		for logical := 0; logical < s.Capacity(); logical++ {
			want, err := model.DegradedRead(logical, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Read(logical, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("disk %d down, logical %d: store %x != model %x", f, logical, got, want)
			}
		}
		replacement := store.NewMemDisk(int64(l.Size) * unitSize)
		if err := s.Rebuild(replacement); err != nil {
			t.Fatal(err)
		}
		if s.Failed() != -1 {
			t.Fatalf("after rebuild of disk %d: Failed() = %d, want -1", f, s.Failed())
		}
		rebuilt := make([]byte, l.Size*unitSize)
		if _, err := replacement.ReadAt(rebuilt, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt, model.DiskContents(f)) {
			t.Fatalf("rebuilt disk %d differs from model contents", f)
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatalf("after rebuild of disk %d: %v", f, err)
		}
	}
}

// TestReadWriteAtSpansUnits drives the byte-offset API (including the
// full-stripe fast path and unaligned edges) against a flat mirror of the
// logical space, healthy and degraded.
func TestReadWriteAtSpansUnits(t *testing.T) {
	const unitSize = 32
	s := mustStore(t, 13, 4, 2, unitSize)
	mirror := make([]byte, s.Size())

	rng := rand.New(rand.NewSource(2))
	check := func(tag string) {
		t.Helper()
		got := make([]byte, len(mirror))
		if _, err := s.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !bytes.Equal(got, mirror) {
			t.Fatalf("%s: store contents diverge from mirror", tag)
		}
	}
	hammer := func(ops int) {
		for i := 0; i < ops; i++ {
			off := int64(rng.Intn(int(s.Size())))
			n := rng.Intn(6*unitSize) + 1
			if off+int64(n) > s.Size() {
				n = int(s.Size() - off)
			}
			p := make([]byte, n)
			rng.Read(p)
			if _, err := s.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			copy(mirror[off:], p)

			roff := int64(rng.Intn(int(s.Size())))
			rn := rng.Intn(6*unitSize) + 1
			if roff+int64(rn) > s.Size() {
				rn = int(s.Size() - roff)
			}
			got := make([]byte, rn)
			if _, err := s.ReadAt(got, roff); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror[roff:roff+int64(rn)]) {
				t.Fatalf("ReadAt(%d,%d) diverges from mirror", roff, rn)
			}
		}
	}

	hammer(300)
	check("healthy")
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	hammer(300)
	check("degraded")

	if err := s.Rebuild(store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize)); err != nil {
		t.Fatal(err)
	}
	hammer(100)
	check("rebuilt")
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	// Reading past the end is io.EOF with the available prefix.
	tail := make([]byte, 2*unitSize)
	n, err := s.ReadAt(tail, s.Size()-int64(unitSize))
	if n != unitSize || err != io.EOF {
		t.Fatalf("ReadAt past end: n=%d err=%v, want %d, io.EOF", n, err, unitSize)
	}
	if _, err := s.WriteAt(tail, s.Size()-int64(unitSize)); err == nil {
		t.Fatal("WriteAt past end accepted")
	}
}

// TestFileDiskBackend runs the serve/fail/rebuild cycle against real
// files, and checks reopening the array sees the same bytes.
func TestFileDiskBackend(t *testing.T) {
	const unitSize = 64
	res, err := pdl.Build(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Layout
	dir := t.TempDir()
	diskBytes := int64(l.Size) * unitSize
	path := func(d int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.dat", d)) }
	backends := make([]store.Backend, l.V)
	for d := range backends {
		fd, err := store.CreateFileDisk(path(d), diskBytes)
		if err != nil {
			t.Fatal(err)
		}
		backends[d] = fd
	}
	s, err := store.Open(res, l.Size, unitSize, backends)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, unitSize)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Write(i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, unitSize)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(buf, i)) {
			t.Fatalf("degraded read %d mismatch", i)
		}
	}
	replacement, err := store.CreateFileDisk(filepath.Join(dir, "replacement.dat"), diskBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(replacement); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the files (replacement now serves disk 2).
	reopened := make([]store.Backend, l.V)
	for d := range reopened {
		p := path(d)
		if d == 2 {
			p = filepath.Join(dir, "replacement.dat")
		}
		fd, err := store.OpenFileDisk(p)
		if err != nil {
			t.Fatal(err)
		}
		reopened[d] = fd
	}
	s2, err := store.Open(res, l.Size, unitSize, reopened)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < s2.Capacity(); i++ {
		if err := s2.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(buf, i)) {
			t.Fatalf("reopened read %d mismatch", i)
		}
	}
	if err := s2.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreValidation pins the constructor and operation error paths.
func TestStoreValidation(t *testing.T) {
	const unitSize = 8
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Layout
	m, err := res.NewMapper(l.Size)
	if err != nil {
		t.Fatal(err)
	}
	small := make([]store.Backend, l.V)
	for d := range small {
		small[d] = store.NewMemDisk(int64(l.Size)*unitSize - 1)
	}
	if _, err := store.New(m, unitSize, small); err == nil {
		t.Error("undersized backend accepted")
	}
	if _, err := store.New(m, 0, nil); err == nil {
		t.Error("zero unit size accepted")
	}
	if _, err := store.New(m, unitSize, make([]store.Backend, 2)); err == nil {
		t.Error("wrong backend count accepted")
	}

	s := mustStore(t, 9, 3, 1, unitSize)
	buf := make([]byte, unitSize)
	if err := s.Read(-1, buf); err == nil {
		t.Error("negative logical accepted")
	}
	if err := s.Read(s.Capacity(), buf); err == nil {
		t.Error("out-of-range logical accepted")
	}
	if err := s.Write(0, buf[:4]); err == nil {
		t.Error("short payload accepted")
	}
	if err := s.Fail(9); err == nil {
		t.Error("out-of-range Fail accepted")
	}
	if err := s.Rebuild(store.NewMemDisk(int64(l.Size) * unitSize)); err == nil {
		t.Error("Rebuild with no failed disk accepted")
	}
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(2); err == nil {
		t.Error("second Fail accepted")
	}
	if err := s.Rebuild(store.NewMemDisk(4)); err == nil {
		t.Error("undersized replacement accepted")
	}
	st := s.Stats()
	if st.Failed != 1 || len(st.Disks) != 9 {
		t.Errorf("Stats: failed %d disks %d", st.Failed, len(st.Disks))
	}
}

// TestStatsCount checks the per-disk counters see traffic and degraded
// ops are flagged.
func TestStatsCount(t *testing.T) {
	const unitSize = 8
	s := mustStore(t, 9, 3, 1, unitSize)
	buf := make([]byte, unitSize)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Write(i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	var reads, writes, degraded int64
	for _, d := range st.Disks {
		reads += d.Reads
		writes += d.Writes
		degraded += d.Degraded
	}
	// Every small write is 2 reads + 2 writes.
	if want := int64(2 * s.Capacity()); reads != want || writes != want {
		t.Errorf("healthy traffic: %d reads %d writes, want %d each", reads, writes, want)
	}
	if degraded != 0 {
		t.Errorf("healthy traffic flagged %d degraded ops", degraded)
	}
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Read(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); func() int64 {
		var n int64
		for _, d := range st.Disks {
			n += d.Degraded
		}
		return n
	}() == 0 {
		t.Error("degraded reads not counted")
	}
}

// TestHotPathAllocs pins the zero-allocation acceptance criterion for
// steady-state healthy Read and Write on a MemDisk store.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	const unitSize = 4096
	s := mustStore(t, 17, 4, 4, unitSize)
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	payload(src, 7)
	// Warm the pool and the planner scratch.
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
		t.Errorf("healthy Read allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Write(i%s.Capacity(), src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("healthy Write allocates %v/op, want 0", n)
	}
}
