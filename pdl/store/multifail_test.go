package store_test

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// mustRS2 builds a Reed–Solomon store carrying two parity units per
// stripe, plus the layout it runs on.
func mustRS2(t *testing.T, v, k, unitSize int) (*store.Store, *layout.Layout) {
	t.Helper()
	res, err := pdl.Build(v, k, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Code().Name() != "rs" || s.Code().ParityShards() != 2 {
		t.Fatalf("store runs %s/%d, want rs/2", s.Code().Name(), s.Code().ParityShards())
	}
	return s, res.Layout
}

// TestStoreTwoFailureMatchesDataModel is the two-failure acceptance pin:
// a Reed–Solomon array with two parity units per stripe, driven
// sequentially, must agree byte-for-byte with pdl/layout's Data
// reference model — healthy traffic, then for EVERY pair of disks both
// failed at once: degraded reads, degraded writes, and the two online
// rebuilds that bring the array back, with the rebuilt disks' raw
// contents matching the model's.
func TestStoreTwoFailureMatchesDataModel(t *testing.T) {
	const unitSize = 16
	s, l := mustRS2(t, 9, 4, unitSize)
	model, err := layout.NewData(l, unitSize)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, unitSize)
	got := make([]byte, unitSize)
	// hammer interleaves reads (compared against the model's view under
	// the given failures) and writes (applied to both).
	hammer := func(ops int, failed ...int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			logical := rng.Intn(s.Capacity())
			if rng.Intn(3) == 0 {
				want, err := model.DegradedRead(logical, failed...)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Read(logical, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("failed=%v logical %d: store %x != model %x", failed, logical, got, want)
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
	}

	hammer(4 * s.Capacity())
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := model.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	diskBytes := int64(l.Size) * unitSize
	rebuildOne := func(disk int) {
		t.Helper()
		replacement := store.NewMemDisk(diskBytes)
		if err := s.Rebuild(replacement); err != nil {
			t.Fatal(err)
		}
		rebuilt := make([]byte, diskBytes)
		if _, err := replacement.ReadAt(rebuilt, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt, model.DiskContents(disk)) {
			t.Fatalf("rebuilt disk %d differs from model contents", disk)
		}
	}

	for f1 := 0; f1 < l.V; f1++ {
		for f2 := f1 + 1; f2 < l.V; f2++ {
			// Fail incrementally: one disk down (single-failure service on
			// the RS array), then the second on top.
			if err := s.Fail(f1); err != nil {
				t.Fatal(err)
			}
			hammer(s.Capacity()/2, f1)
			if err := s.Fail(f2); err != nil {
				t.Fatal(err)
			}
			hammer(s.Capacity(), f1, f2)
			// Full sweep: every logical unit must be served with both
			// disks gone.
			for logical := 0; logical < s.Capacity(); logical++ {
				want, err := model.DegradedRead(logical, f1, f2)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Read(logical, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("disks %d,%d down, logical %d: store %x != model %x", f1, f2, logical, got, want)
				}
			}
			// Rebuild both disks (lowest first), checking each against the
			// model's raw disk bytes; the array must end healthy and
			// parity-consistent.
			rebuildOne(f1)
			if s.Failed() != f2 {
				t.Fatalf("after first rebuild: Failed() = %d, want %d", s.Failed(), f2)
			}
			hammer(s.Capacity()/2, f2)
			rebuildOne(f2)
			if s.Failed() != -1 || len(s.FailedDisks()) != 0 {
				t.Fatalf("after second rebuild: Failed() = %d, FailedDisks = %v", s.Failed(), s.FailedDisks())
			}
			if err := s.VerifyParity(); err != nil {
				t.Fatalf("disks %d,%d: %v", f1, f2, err)
			}
		}
	}
	if err := model.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoFailureRebuildUnderLoad rebuilds an RS array with TWO disks
// down while a writer keeps mutating it in lockstep with a never-failed
// control store: after both rebuilds the subject must match the control
// byte-for-byte, including both replacement disks' raw contents. This
// exercises the degraded write paths and the rebuilt-stripe patching
// that keeps the replacement current under foreground traffic.
func TestTwoFailureRebuildUnderLoad(t *testing.T) {
	const (
		unitSize = 48
		fail1    = 2
		fail2    = 7
	)
	res, err := pdl.Build(13, 5, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	diskUnits := 2 * res.Layout.Size
	subject, err := store.Open(res, diskUnits, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	control, err := store.Open(res, diskUnits, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(44))
	buf := make([]byte, unitSize)
	writeBoth := func(logical int) {
		rng.Read(buf)
		if err := subject.Write(logical, buf); err != nil {
			t.Error(err)
		}
		if err := control.Write(logical, buf); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < subject.Capacity(); i++ {
		writeBoth(i)
	}
	if err := subject.Fail(fail1); err != nil {
		t.Fatal(err)
	}
	if err := subject.Fail(fail2); err != nil {
		t.Fatal(err)
	}

	// Two rebuilds back to back, with the writer running throughout: the
	// first rebuild runs with a second disk still down.
	diskBytes := int64(diskUnits) * unitSize
	repl1 := store.NewMemDisk(diskBytes)
	repl2 := store.NewMemDisk(diskBytes)
	var wg sync.WaitGroup
	wg.Add(1)
	rebuildErr := make(chan error, 2)
	go func() {
		defer wg.Done()
		rebuildErr <- subject.Rebuild(repl1)
		rebuildErr <- subject.Rebuild(repl2)
	}()
	for i := 0; i < 6000; i++ {
		writeBoth(rng.Intn(subject.Capacity()))
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-rebuildErr; err != nil {
			t.Fatal(err)
		}
	}
	if subject.Failed() != -1 {
		t.Fatalf("Failed() = %d after both rebuilds", subject.Failed())
	}
	for i := 0; i < 500; i++ {
		writeBoth(rng.Intn(subject.Capacity()))
	}

	if err := subject.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, unitSize)
	want := make([]byte, unitSize)
	for logical := 0; logical < subject.Capacity(); logical++ {
		if err := subject.Read(logical, got); err != nil {
			t.Fatal(err)
		}
		if err := control.Read(logical, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("logical %d: rebuilt store %x != control %x", logical, got, want)
		}
	}
	gotDisk := make([]byte, diskBytes)
	wantDisk := make([]byte, diskBytes)
	for _, d := range []int{fail1, fail2} {
		if _, err := subject.DiskBackend(d).ReadAt(gotDisk, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if _, err := control.DiskBackend(d).ReadAt(wantDisk, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDisk, wantDisk) {
			t.Fatalf("rebuilt disk %d contents differ from never-failed control", d)
		}
	}
}

// TestTwoFailureVecAndStripePaths drives the batched vector API and the
// byte-offset full-stripe fast path on an RS array, healthy and with two
// disks down, against a flat mirror.
func TestTwoFailureVecAndStripePaths(t *testing.T) {
	const unitSize = 32
	s, _ := mustRS2(t, 9, 4, unitSize)
	mirror := make([]byte, s.Size())
	rng := rand.New(rand.NewSource(5))

	check := func(tag string) {
		t.Helper()
		got := make([]byte, len(mirror))
		if _, err := s.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !bytes.Equal(got, mirror) {
			t.Fatalf("%s: store diverges from mirror", tag)
		}
	}
	hammer := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0: // vector write (sized to sometimes cover whole stripes)
				n := rng.Intn(6) + 1
				vops := make([]store.VecOp, n)
				base := rng.Intn(s.Capacity() - n + 1)
				for j := range vops {
					vops[j] = store.VecOp{Logical: base + j, Buf: payload(make([]byte, unitSize), rng.Int())}
					copy(mirror[(base+j)*unitSize:], vops[j].Buf)
				}
				if err := s.WriteVec(vops); err != nil {
					t.Fatal(err)
				}
			case 1: // byte-offset write across stripes
				off := int64(rng.Intn(int(s.Size())))
				n := rng.Intn(8*unitSize) + 1
				if off+int64(n) > s.Size() {
					n = int(s.Size() - off)
				}
				p := make([]byte, n)
				rng.Read(p)
				if _, err := s.WriteAt(p, off); err != nil {
					t.Fatal(err)
				}
				copy(mirror[off:], p)
			default: // vector read
				n := rng.Intn(6) + 1
				vops := make([]store.VecOp, n)
				for j := range vops {
					vops[j] = store.VecOp{Logical: rng.Intn(s.Capacity()), Buf: make([]byte, unitSize)}
				}
				if err := s.ReadVec(vops); err != nil {
					t.Fatal(err)
				}
				for _, o := range vops {
					if !bytes.Equal(o.Buf, mirror[o.Logical*unitSize:(o.Logical+1)*unitSize]) {
						t.Fatalf("ReadVec logical %d diverges from mirror", o.Logical)
					}
				}
			}
		}
	}

	hammer(300)
	check("healthy")
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(6); err != nil {
		t.Fatal(err)
	}
	hammer(300)
	check("two down")

	diskBytes := int64(s.Mapper().DiskUnits()) * unitSize
	if err := s.Rebuild(store.NewMemDisk(diskBytes)); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(store.NewMemDisk(diskBytes)); err != nil {
		t.Fatal(err)
	}
	hammer(100)
	check("rebuilt")
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiFailValidation pins the failure-budget error paths of the
// multi-parity engine.
func TestMultiFailValidation(t *testing.T) {
	const unitSize = 8
	s, _ := mustRS2(t, 9, 4, unitSize)
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(3); err == nil {
		t.Error("duplicate Fail accepted")
	}
	if err := s.Fail(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(7); err == nil {
		t.Error("third Fail accepted on a two-parity code")
	}
	if got := s.FailedDisks(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("FailedDisks() = %v, want [3 5]", got)
	}
	st := s.Stats()
	if st.Failed != 3 || len(st.FailedDisks) != 2 {
		t.Errorf("Stats: Failed=%d FailedDisks=%v", st.Failed, st.FailedDisks)
	}
}

// yieldingDisk is a replacement disk that yields the processor before
// every write, so foreground goroutines get to run between the stripes
// of a Rebuild even when the test has fewer CPUs than goroutines.
type yieldingDisk struct{ store.Backend }

func (d yieldingDisk) WriteAt(p []byte, off int64) (int, error) {
	runtime.Gosched()
	return d.Backend.WriteAt(p, off)
}

// TestTwoDownRebuildUnderConcurrentLoad is the regression test for the
// two-disks-down rebuild corruption: on the reference geometry G17
// (v=17, k=5, rs m=2) two goroutines run a 30 % Write / 70 % Read mix,
// every read checked against pdl/layout's Data model, while the main
// goroutine fails disks 0 and 1 and rebuilds both, thirty times over. A
// DegradedWrite (home lost together with another data unit) landing on
// an already-rebuilt stripe whose home unit lives on the disk being
// rebuilt used to update the parities and leave the replacement's copy
// of the home stale, so the swapped-in disk disagreed with parity.
func TestTwoDownRebuildUnderConcurrentLoad(t *testing.T) {
	const (
		unitSize = 64
		workers  = 2
		cycles   = 30
	)
	s, l := mustRS2(t, 17, 5, unitSize)
	model, err := layout.NewData(l, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	// The model is single-threaded, so it sits behind a mutex; worker w
	// owns the logical units congruent to w, so nobody else changes a
	// unit between its store write and its model write.
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			buf := make([]byte, unitSize)
			got := make([]byte, unitSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				logical := rng.Intn(s.Capacity()/workers)*workers + w
				if rng.Intn(10) < 3 {
					payload(buf, rng.Int())
					if err := s.Write(logical, buf); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					err := model.WriteLogical(logical, buf)
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := s.Read(logical, got); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				want, err := model.ReadLogical(logical)
				same := err == nil && bytes.Equal(got, want)
				mu.Unlock()
				if !same {
					t.Errorf("logical %d: store %x != model %x (%v)", logical, got, want, err)
					return
				}
			}
		}(w)
	}

	diskBytes := int64(s.Mapper().DiskUnits()) * unitSize
	for c := 0; c < cycles && !t.Failed(); c++ {
		for _, d := range []int{0, 1} {
			if err := s.Fail(d); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 {
			if err := s.Rebuild(yieldingDisk{store.NewMemDisk(diskBytes)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, unitSize)
	for logical := 0; logical < s.Capacity(); logical++ {
		if err := s.Read(logical, got); err != nil {
			t.Fatal(err)
		}
		if want, err := model.ReadLogical(logical); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after %d cycles, logical %d: store %x != model %x (%v)", cycles, logical, got, want, err)
		}
	}
}
