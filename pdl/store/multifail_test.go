package store_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pdl"
	"repro/pdl/code"
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

// codeRow is one (code, geometry) input of the tests that must hold for
// every code the store accepts, not only the default for its m.
type codeRow struct {
	name string
	k    int
	code code.Code
}

// codeRows lists XOR, Reed–Solomon pinned at one parity shard (the same
// layouts and plans as XOR, different coefficients) and the two-parity
// default, all on v = 9.
func codeRows(t *testing.T) []codeRow {
	t.Helper()
	rs1, err := code.New("rs", 1)
	if err != nil {
		t.Fatal(err)
	}
	return []codeRow{
		{"xor", 3, code.Default(1)},
		{"rs1", 3, rs1},
		{"rs2", 4, code.Default(2)},
	}
}

// newStore builds the row's MemDisk store on one layout copy per disk.
func (r codeRow) newStore(t *testing.T, unitSize int) (*store.Store, *layout.Layout) {
	t.Helper()
	res, err := pdl.Build(9, r.k, pdl.WithParityShards(r.code.ParityShards()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.NewMapper(res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	disks := make([]store.Backend, m.Disks())
	for d := range disks {
		disks[d] = store.NewMemDisk(int64(res.Layout.Size) * int64(unitSize))
	}
	s, err := store.NewCode(m, unitSize, disks, r.code)
	if err != nil {
		t.Fatal(err)
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
// exercises the degraded write paths and the rebuilt stripes that
// foreground writes reach on the replacement.
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

// pacedDisk is a replacement disk that lets one foreground step (counted
// in steps) pass before every write, stretching a Rebuild over many
// foreground ops. The wait is a bounded spin: Rebuild holds the stripe's
// lock here, and the step being waited for may itself want that lock.
type pacedDisk struct {
	store.Backend
	steps *atomic.Int64
}

func (d pacedDisk) WriteAt(p []byte, off int64) (int, error) {
	for seen, i := d.steps.Load(), 0; i < 512 && d.steps.Load() == seen; i++ {
		runtime.Gosched()
	}
	return d.Backend.WriteAt(p, off)
}

// sweepSteps is the per-seed step budget of TestWriteSweep: def on a
// normal run, PDL_SWEEP_STEPS when set (the nightly workflow raises it
// tenfold).
func sweepSteps(t *testing.T, def int) int {
	t.Helper()
	v := os.Getenv("PDL_SWEEP_STEPS")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("PDL_SWEEP_STEPS=%q: want a positive integer", v)
	}
	return n
}

// TestWriteSweep is the seeded differential sweep of the write executor:
// from one seed it samples, for every code row, a walk over (failed set
// of size 0..m, rebuild in progress or not, op in {Write, partial-unit
// WriteAt, WriteVec group}) and after EVERY step compares the store's
// whole logical space with pdl/layout's Data model byte-for-byte; each
// finished rebuild's replacement must equal the model's raw disk. The
// comparison reads units in DEcreasing order and VerifyParity runs only
// between rebuilds: a pass in stripe order queues behind the rebuilder at
// every stripe and lets it finish inside a single step. The op sequence
// is a function of the seed alone (only the rebuild's progress varies
// between runs); failures name the seed.
func TestWriteSweep(t *testing.T) {
	setProcs(t, 4) // rebuilds fan out even on a one-CPU runner
	steps := sweepSteps(t, 400)
	for _, tc := range codeRows(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				writeSweep(t, tc, seed, steps)
			})
		}
	}
}

func writeSweep(t *testing.T, tc codeRow, seed int64, steps int) {
	const unitSize = 32
	s, l := tc.newStore(t, unitSize)
	model, err := layout.NewDataCode(l, unitSize, tc.code)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	diskBytes := int64(l.Size) * unitSize
	var done atomic.Int64 // steps completed, for pacedDisk
	step := 0
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}

	// modelWriteAt applies a byte-range write to the unit-granular model.
	modelWriteAt := func(p []byte, off int64) {
		for len(p) > 0 {
			logical, within := int(off/unitSize), int(off%unitSize)
			u, err := model.ReadLogical(logical)
			if err != nil {
				fatalf("%v", err)
			}
			n := copy(u[within:], p)
			if err := model.WriteLogical(logical, u); err != nil {
				fatalf("%v", err)
			}
			p, off = p[n:], off+int64(n)
		}
	}

	// failed mirrors the store's failed set; the running rebuild (if any)
	// reconstructs failed[0], which leaves the set when join collects it.
	var failed []int
	var rebuilding chan error
	var replacement *store.MemDisk
	join := func() {
		if rebuilding == nil {
			return
		}
		for pending := true; pending; {
			select {
			case err := <-rebuilding:
				if err != nil {
					fatalf("rebuild of disk %d: %v", failed[0], err)
				}
				pending = false
			default:
				done.Add(1) // wave the paced replacement on
				runtime.Gosched()
			}
		}
		got := make([]byte, diskBytes)
		if _, err := replacement.ReadAt(got, 0); err != nil && err != io.EOF {
			fatalf("%v", err)
		}
		if !bytes.Equal(got, model.DiskContents(failed[0])) {
			fatalf("rebuilt disk %d differs from model contents (failed %v)", failed[0], failed)
		}
		failed, rebuilding = failed[1:], nil
	}

	got := make([]byte, unitSize)
	for step = 0; step < steps; step++ {
		switch r := rng.Intn(24); {
		case r == 0:
			join()
			if len(failed) == tc.code.ParityShards() {
				continue
			}
			d := rng.Intn(l.V)
			if slices.Contains(failed, d) {
				continue
			}
			if err := s.Fail(d); err != nil {
				fatalf("%v", err)
			}
			failed = append(failed, d)
			slices.Sort(failed)
		case r == 1:
			join()
			if len(failed) == 0 {
				continue
			}
			replacement = store.NewMemDisk(diskBytes)
			rebuilding = make(chan error, 1)
			go func(done chan<- error, dst store.Backend) { done <- s.Rebuild(dst) }(rebuilding, pacedDisk{replacement, &done})
		case r%3 == 0:
			buf := payload(make([]byte, unitSize), rng.Int())
			logical := rng.Intn(s.Capacity())
			if err := s.Write(logical, buf); err != nil {
				fatalf("Write(%d): %v", logical, err)
			}
			modelWriteAt(buf, int64(logical)*unitSize)
		case r%3 == 1:
			// Mostly a few bytes inside or across units; now and then long
			// enough to cover whole stripes.
			n := 1 + rng.Intn(2*unitSize)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(3*tc.k*unitSize)
			}
			off := rng.Int63n(s.Size())
			n = min(n, int(s.Size()-off))
			buf := payload(make([]byte, n), rng.Int())
			if _, err := s.WriteAt(buf, off); err != nil {
				fatalf("WriteAt(%d bytes at %d): %v", n, off, err)
			}
			modelWriteAt(buf, off)
		default:
			// A run of neighbouring units (so stripes group and some get
			// promoted to full-stripe writes) with a duplicate at the end.
			base := rng.Intn(s.Capacity())
			ops := make([]store.VecOp, 0, 2*tc.k+1)
			for i := 0; i < 1+rng.Intn(2*tc.k) && base+i < s.Capacity(); i++ {
				ops = append(ops, store.VecOp{Logical: base + i, Buf: payload(make([]byte, unitSize), rng.Int())})
			}
			ops = append(ops, store.VecOp{Logical: base, Buf: payload(make([]byte, unitSize), rng.Int())})
			if err := s.WriteVec(ops); err != nil {
				fatalf("WriteVec(%d ops from %d): %v", len(ops), base, err)
			}
			for _, op := range ops {
				modelWriteAt(op.Buf, int64(op.Logical)*unitSize)
			}
		}

		for logical := s.Capacity() - 1; logical >= 0; logical-- {
			if err := s.Read(logical, got); err != nil {
				fatalf("Read(%d): %v", logical, err)
			}
			if want, err := model.ReadLogical(logical); err != nil || !bytes.Equal(got, want) {
				fatalf("failed %v rebuilding %v, logical %d: store %x != model %x (%v)", failed, rebuilding != nil, logical, got, want, err)
			}
		}
		if rebuilding == nil {
			if err := s.VerifyParity(); err != nil {
				fatalf("failed %v: %v", failed, err)
			}
		}
		done.Add(1)
	}
	join()
	if err := s.VerifyParity(); err != nil {
		fatalf("failed %v: %v", failed, err)
	}
	if err := model.VerifyParity(); err != nil {
		fatalf("%v", err)
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
	setProcs(t, 4) // rebuilds fan out even on a one-CPU runner
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
