package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/code"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// TestRebuildUnderLoad is the ISSUE's rebuild-under-load check: a disk
// fails mid-workload, the online rebuild runs while a writer keeps
// mutating both the failed store and a never-failed control store with
// the identical operation sequence, and afterwards the rebuilt store
// must match the control byte-exactly — every logical unit and the
// rebuilt disk's raw contents.
func TestRebuildUnderLoad(t *testing.T) {
	const (
		unitSize = 48
		failDisk = 4
	)
	res, err := pdl.Build(13, 4)
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

	rng := rand.New(rand.NewSource(42))
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

	// Warm both stores with the same dataset, then fail a disk
	// mid-workload on the subject only.
	for i := 0; i < subject.Capacity(); i++ {
		writeBoth(i)
	}
	if err := subject.Fail(failDisk); err != nil {
		t.Fatal(err)
	}

	// Writer and rebuilder run concurrently; the writer keeps the two
	// stores in lockstep (same ops, same order) while stripes stream
	// onto the replacement.
	replacement := store.NewMemDisk(int64(diskUnits) * unitSize)
	var wg sync.WaitGroup
	wg.Add(1)
	rebuildErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		rebuildErr <- subject.Rebuild(replacement)
	}()
	for i := 0; i < 4000; i++ {
		writeBoth(rng.Intn(subject.Capacity()))
	}
	wg.Wait()
	if err := <-rebuildErr; err != nil {
		t.Fatal(err)
	}
	if subject.Failed() != -1 {
		t.Fatalf("Failed() = %d after rebuild", subject.Failed())
	}
	// A tail of post-rebuild traffic, still in lockstep.
	for i := 0; i < 500; i++ {
		writeBoth(rng.Intn(subject.Capacity()))
	}

	if err := subject.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := control.VerifyParity(); err != nil {
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
	// The replacement's raw bytes (now serving disk failDisk) must equal
	// the control's never-failed disk byte-for-byte.
	diskBytes := int64(diskUnits) * unitSize
	gotDisk := make([]byte, diskBytes)
	wantDisk := make([]byte, diskBytes)
	if _, err := subject.DiskBackend(failDisk).ReadAt(gotDisk, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if _, err := control.DiskBackend(failDisk).ReadAt(wantDisk, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDisk, wantDisk) {
		t.Fatal("rebuilt disk contents differ from never-failed control")
	}
	if subject.DiskBackend(failDisk) != store.Backend(replacement) {
		t.Error("replacement backend did not take the failed disk's slot")
	}
}

// setProcs sets GOMAXPROCS — which, with the surviving disk count, sets
// Rebuild's worker count — for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// diskReads is the per-disk physical read count so far.
func diskReads(s *store.Store) []int64 {
	st := s.Stats()
	reads := make([]int64, len(st.Disks))
	for d := range reads {
		reads[d] = st.Disks[d].Reads
	}
	return reads
}

// TestRebuildFanOutMatchesModel pins that the worker count changes
// nothing but the wall time: for every code row (rs m=2 with a second
// disk down) and GOMAXPROCS 1, 2 and 8, the rebuilt replacement equals
// pdl/layout's Data model byte-for-byte, and each survivor serves exactly
// the reads it serves a single worker — the layout's rebuild read
// balance belongs to the layout, not to the schedule.
func TestRebuildFanOutMatchesModel(t *testing.T) {
	const unitSize, target = 32, 2
	for _, tc := range codeRows(t) {
		t.Run(tc.name, func(t *testing.T) {
			var want []int64
			for _, procs := range []int{1, 2, 8} {
				setProcs(t, procs)
				s, l := tc.newStore(t, unitSize)
				model, err := layout.NewDataCode(l, unitSize, tc.code)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, unitSize)
				for logical := 0; logical < s.Capacity(); logical++ {
					payload(buf, logical+procs)
					if err := s.Write(logical, buf); err != nil {
						t.Fatal(err)
					}
					if err := model.WriteLogical(logical, buf); err != nil {
						t.Fatal(err)
					}
				}
				for _, d := range []int{target, 6}[:tc.code.ParityShards()] {
					if err := s.Fail(d); err != nil {
						t.Fatal(err)
					}
				}
				before := diskReads(s)
				replacement := store.NewMemDisk(int64(l.Size) * unitSize)
				if err := s.Rebuild(replacement); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, replacement.Size())
				if _, err := replacement.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model.DiskContents(target)) {
					t.Fatalf("GOMAXPROCS=%d: rebuilt disk %d differs from model contents", procs, target)
				}
				reads := diskReads(s)
				for d := range reads {
					reads[d] -= before[d]
				}
				if want == nil {
					want = reads
				} else if !slices.Equal(reads, want) {
					t.Fatalf("GOMAXPROCS=%d: survivor reads %v, single worker %v", procs, reads, want)
				}
				if st := s.Stats(); st.Rebuilding || st.RebuildWorkers != 0 {
					t.Fatalf("GOMAXPROCS=%d: after Rebuild: Rebuilding=%v RebuildWorkers=%d", procs, st.Rebuilding, st.RebuildWorkers)
				}
			}
		})
	}
}

// faultyDisk fails the read that brings the shared countdown to zero,
// and only that one.
type faultyDisk struct {
	store.Backend
	countdown *atomic.Int64
}

var errInjected = errors.New("injected read fault")

func (d faultyDisk) ReadAt(p []byte, off int64) (int, error) {
	if d.countdown.Add(-1) == 0 {
		return 0, errInjected
	}
	return d.Backend.ReadAt(p, off)
}

// TestRebuildReadErrorLeavesStoreDegraded is the fan-out's error path: a
// survivor read failing mid-rebuild makes Rebuild return that error from
// whichever worker hit it, every worker stops, and the store is exactly
// as degraded as before — same failed set, no rebuild in progress, reads
// still right — so a second Rebuild succeeds.
func TestRebuildReadErrorLeavesStoreDegraded(t *testing.T) {
	const unitSize = 32
	setProcs(t, 4)
	res, err := pdl.Build(17, 5, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var countdown atomic.Int64
	disks := make([]store.Backend, res.Layout.V)
	for d := range disks {
		disks[d] = faultyDisk{store.NewMemDisk(int64(res.Layout.Size) * unitSize), &countdown}
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, disks)
	if err != nil {
		t.Fatal(err)
	}
	mirror := payload(make([]byte, s.Size()), 11)
	if _, err := s.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{3, 9} {
		if err := s.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	checkReads := func(tag string) {
		t.Helper()
		got := make([]byte, len(mirror))
		if _, err := s.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !bytes.Equal(got, mirror) {
			t.Fatalf("%s: store diverges from mirror", tag)
		}
	}

	diskBytes := int64(res.Layout.Size) * unitSize
	countdown.Store(137) // some survivor read in the middle of the rebuild
	if err := s.Rebuild(store.NewMemDisk(diskBytes)); !errors.Is(err, errInjected) {
		t.Fatalf("Rebuild with a failing survivor read returned %v, want the injected fault", err)
	}
	if countdown.Load() > 0 {
		t.Fatal("the injected fault never fired")
	}
	st := s.Stats()
	if !slices.Equal(st.FailedDisks, []int{3, 9}) || st.Rebuilding || st.RebuildWorkers != 0 || st.RebuiltStripes != 0 {
		t.Fatalf("after the failed Rebuild: %+v", st)
	}
	// Rebuild put its replacement in disk 3's slot when it started; the
	// failure must have put the original back.
	if s.DiskBackend(3) != disks[3] {
		t.Fatal("after the failed Rebuild, disk 3 is not served by its original backend")
	}
	checkReads("after the failed Rebuild")

	for range 2 {
		if err := s.Rebuild(store.NewMemDisk(diskBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if failed := s.FailedDisks(); len(failed) != 0 {
		t.Fatalf("FailedDisks() = %v after both rebuilds", failed)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	checkReads("rebuilt")
}

// heldDisk lets its first WriteAt through and holds every later one until
// open is closed, closing holding when the second arrives: a one-worker
// rebuild onto it stops with its first chunk on the replacement and the
// stripes after it not yet rebuilt.
type heldDisk struct {
	store.Backend
	writes        atomic.Int64
	holding, open chan struct{}
}

func (d *heldDisk) WriteAt(p []byte, off int64) (int, error) {
	if n := d.writes.Add(1); n > 1 {
		if n == 2 {
			close(d.holding)
		}
		<-d.open
	}
	return d.Backend.WriteAt(p, off)
}

// TestRebuiltStripeReadsReplacement pins that a rebuilt stripe is a
// healthy stripe. A one-worker rebuild of G17 is held after its first
// chunk. A unit of that chunk whose home is the rebuilt disk then reads
// from the replacement: one read, on that disk, none degraded. A unit of
// a stripe two chunks on, not yet rebuilt, still reconstructs from the
// other k − 1 units of its stripe, every read degraded.
func TestRebuiltStripeReadsReplacement(t *testing.T) {
	const unitSize, copies, k, target = 32, 8, 5, 0
	setProcs(t, 1)
	s := mustStore(t, 17, k, copies, unitSize)
	m := s.Mapper()
	mirror := payload(make([]byte, s.Size()), 3)
	if _, err := s.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(target); err != nil {
		t.Fatal(err)
	}
	// onTarget lists the logical units of stripes [lo, hi) whose home is
	// the target and counts the stripes that cross it.
	onTarget := func(lo, hi int) (homes []int, crossing int) {
		t.Helper()
		for stripe := lo; stripe < hi; stripe++ {
			units, err := m.AppendStripeUnits(nil, stripe)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range units {
				if u.Disk != target {
					continue
				}
				crossing++
				if logical, ok := m.Logical(u); ok {
					homes = append(homes, logical)
				}
			}
		}
		return homes, crossing
	}
	chunk := store.RebuildChunk
	rebuilt, crossing := onTarget(0, chunk)
	// Chunk 1 is the one the worker holds, locks and all; chunk 2 is free.
	unrebuilt, _ := onTarget(2*chunk, 3*chunk)
	if len(rebuilt) == 0 || len(unrebuilt) == 0 {
		t.Fatalf("G17 x%d: no unit homed on disk %d in chunk 0 or chunk 2", copies, target)
	}

	held := &heldDisk{
		Backend: store.NewMemDisk(int64(m.DiskUnits()) * unitSize),
		holding: make(chan struct{}),
		open:    make(chan struct{}),
	}
	var release sync.Once
	defer release.Do(func() { close(held.open) })
	done := make(chan error, 1)
	go func() { done <- s.Rebuild(held) }()
	select {
	case <-held.holding:
	case err := <-done:
		t.Fatalf("the rebuild finished (%v) without a second write", err)
	}
	if n := s.Stats().RebuiltStripes; n != crossing {
		t.Fatalf("rebuild held with %d stripes rebuilt, want chunk 0's %d in its first write", n, crossing)
	}

	got := make([]byte, unitSize)
	// read reads one unit, checks it against the mirror, and returns the
	// physical reads it took, those on the target, and the degraded ones.
	read := func(logical int) (reads, onTgt, degraded int64) {
		t.Helper()
		before := s.Stats()
		if err := s.Read(logical, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, mirror[logical*unitSize:(logical+1)*unitSize]) {
			t.Fatalf("logical %d read during the rebuild diverges from mirror", logical)
		}
		after := s.Stats()
		for d := range after.Disks {
			reads += after.Disks[d].Reads - before.Disks[d].Reads
			degraded += after.Disks[d].Degraded - before.Disks[d].Degraded
		}
		return reads, after.Disks[target].Reads - before.Disks[target].Reads, degraded
	}
	if r, on, dg := read(rebuilt[0]); r != 1 || on != 1 || dg != 0 {
		t.Errorf("rebuilt stripe, logical %d: %d reads (%d on disk %d), %d degraded; want one read of the replacement, none degraded",
			rebuilt[0], r, on, target, dg)
	}
	if r, on, dg := read(unrebuilt[0]); r != k-1 || on != 0 || dg != k-1 {
		t.Errorf("unrebuilt stripe, logical %d: %d reads (%d on disk %d), %d degraded; want %d survivor reads, all degraded",
			unrebuilt[0], r, on, target, dg, k-1)
	}
	release.Do(func() { close(held.open) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// gaugeDisk is a replacement disk that, before every write, yields the
// processor (so the other workers run between stripes even on one CPU)
// and samples Stats().RebuildWorkers into the range [lo, hi].
type gaugeDisk struct {
	store.Backend
	s      *store.Store
	lo, hi *atomic.Int64
}

func (d gaugeDisk) WriteAt(p []byte, off int64) (int, error) {
	runtime.Gosched()
	n := int64(d.s.Stats().RebuildWorkers)
	for lo := d.lo.Load(); n < lo && !d.lo.CompareAndSwap(lo, n); lo = d.lo.Load() {
	}
	for hi := d.hi.Load(); n > hi && !d.hi.CompareAndSwap(hi, n); hi = d.hi.Load() {
	}
	return d.Backend.WriteAt(p, off)
}

// steppedDisk is a replacement disk that lets a foreground op complete
// (counted in steps) before every write. It waits asleep, so that a lone
// CPU goes to the foreground goroutine, and gives up after a while — the
// op it waits for may be queued on the stripe lock its caller holds —
// but well inside the quiet interval a stood-down helper waits for.
type steppedDisk struct {
	store.Backend
	steps *atomic.Int64
}

func (d steppedDisk) WriteAt(p []byte, off int64) (int, error) {
	for seen, t0 := d.steps.Load(), time.Now(); d.steps.Load() == seen && time.Since(t0) < time.Millisecond; {
		time.Sleep(20 * time.Microsecond)
	}
	return d.Backend.WriteAt(p, off)
}

// TestRebuildHelpersStandDown pins the foreground-idle rule. On an idle
// store the helpers take part: they claim chunks, and a worker writing
// the replacement sees itself and others in Stats().RebuildWorkers. With
// a foreground goroutine reading for the whole rebuild — a reader, so
// that the replacement can hold every rebuild write until one more
// foreground op is through without ever holding up the foreground itself
// — no chunk goes by without an op, so the helpers claim their first
// chunk and then (almost) nothing and the first worker carries the
// rebuild alone.
func TestRebuildHelpersStandDown(t *testing.T) {
	const unitSize, copies, failDisk, procs = 32, 8, 5, 4
	setProcs(t, procs)
	s := mustStore(t, 17, 5, copies, unitSize)
	chunks := int64(s.Mapper().Stripes()+store.RebuildChunk-1) / store.RebuildChunk
	mirror := payload(make([]byte, s.Size()), 5)
	if _, err := s.WriteAt(mirror, 0); err != nil {
		t.Fatal(err)
	}
	diskBytes := int64(s.Mapper().DiskUnits()) * unitSize
	// rebuild fails the disk, rebuilds it onto wrap's disk and returns the
	// chunks helpers claimed.
	rebuild := func(wrap func(store.Backend) store.Backend) int64 {
		t.Helper()
		if err := s.Fail(failDisk); err != nil {
			t.Fatal(err)
		}
		before := s.HelperChunks()
		if err := s.Rebuild(wrap(store.NewMemDisk(diskBytes))); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().RebuildWorkers; n != 0 {
			t.Errorf("RebuildWorkers = %d after the rebuild", n)
		}
		return s.HelperChunks() - before
	}

	var lo, hi atomic.Int64
	lo.Store(procs)
	helped := rebuild(func(b store.Backend) store.Backend { return gaugeDisk{b, s, &lo, &hi} })
	if helped == 0 || lo.Load() < 1 || hi.Load() < 2 || hi.Load() > procs {
		t.Errorf("idle rebuild: helpers claimed %d of %d chunks, RebuildWorkers ranged %d..%d; want helpers taking part, 1..%d workers",
			helped, chunks, lo.Load(), hi.Load(), procs)
	}

	var steps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6))
		got := make([]byte, unitSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			logical := rng.Intn(s.Capacity())
			if err := s.Read(logical, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, mirror[logical*unitSize:(logical+1)*unitSize]) {
				t.Errorf("logical %d read during the rebuild diverges from mirror", logical)
				return
			}
			steps.Add(1)
		}
	}()
	helped = rebuild(func(b store.Backend) store.Backend { return steppedDisk{b, &steps} })
	close(stop)
	wg.Wait()
	// Ungated, three helpers beside one worker claim three chunks in four;
	// gated, a handful (more only when the host stalls the reader for
	// longer than the helpers' quiet interval).
	if helped*2 > chunks {
		t.Errorf("rebuild under a looping reader: helpers claimed %d of %d chunks, want almost none", helped, chunks)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// countingDisk counts the WriteAt calls reaching a replacement disk.
type countingDisk struct {
	store.Backend
	writes *atomic.Int64
}

func (d countingDisk) WriteAt(p []byte, off int64) (int, error) {
	d.writes.Add(1)
	return d.Backend.WriteAt(p, off)
}

// TestRebuildWritesRuns pins the run writer: Rebuild hands the
// replacement one WriteAt per run of consecutive lost units rather than
// one per unit — on G17 at most one write per eight disk units, for XOR,
// Reed–Solomon at one parity shard and at two (with a second disk down),
// on one layout copy and on eight — and the replacement's bytes equal
// pdl/layout's Data model, one model per copy.
func TestRebuildWritesRuns(t *testing.T) {
	const unitSize, target = 32, 2
	setProcs(t, 4)
	rs1, err := code.New("rs", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []code.Code{code.Default(1), rs1, code.Default(2)} {
		for _, copies := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s_m%d_copies%d", c.Name(), c.ParityShards(), copies), func(t *testing.T) {
				res, err := pdl.Build(17, 5, pdl.WithParityShards(c.ParityShards()))
				if err != nil {
					t.Fatal(err)
				}
				diskUnits := copies * res.Layout.Size
				m, err := res.NewMapper(diskUnits)
				if err != nil {
					t.Fatal(err)
				}
				disks := make([]store.Backend, m.Disks())
				for d := range disks {
					disks[d] = store.NewMemDisk(int64(diskUnits) * unitSize)
				}
				s, err := store.NewCode(m, unitSize, disks, c)
				if err != nil {
					t.Fatal(err)
				}
				// The mapper stacks copy i at disk offset i*Layout.Size and
				// logical address i*perCopy: one model per copy.
				perCopy := s.Capacity() / copies
				var want []byte
				buf := make([]byte, unitSize)
				for cp := 0; cp < copies; cp++ {
					model, err := layout.NewDataCode(res.Layout, unitSize, c)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < perCopy; i++ {
						payload(buf, cp*perCopy+i)
						if err := s.Write(cp*perCopy+i, buf); err != nil {
							t.Fatal(err)
						}
						if err := model.WriteLogical(i, buf); err != nil {
							t.Fatal(err)
						}
					}
					want = append(want, model.DiskContents(target)...)
				}
				for _, d := range []int{target, 9}[:c.ParityShards()] {
					if err := s.Fail(d); err != nil {
						t.Fatal(err)
					}
				}
				before := s.Stats().Disks[target].Writes
				var writes atomic.Int64
				replacement := store.NewMemDisk(int64(diskUnits) * unitSize)
				if err := s.Rebuild(countingDisk{replacement, &writes}); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d WriteAt calls for %d units", writes.Load(), diskUnits)
				if n := writes.Load(); n > int64(diskUnits/8) {
					t.Errorf("replacement took %d WriteAt calls for %d units, want <= %d", n, diskUnits, diskUnits/8)
				}
				got := make([]byte, replacement.Size())
				if _, err := replacement.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("rebuilt disk %d differs from the model's contents", target)
				}
				if w := s.Stats().Disks[target].Writes - before; w != int64(diskUnits) {
					t.Errorf("Stats counts %d writes to disk %d, want one per unit (%d)", w, target, diskUnits)
				}
			})
		}
	}
}

// TestRebuildSplitsRuns is the run writer on a layout whose stripe order
// runs against disk order: with G17's stripes listed backwards, each
// lost unit's offset is below the previous one's, so every run is one
// unit long — one WriteAt per unit — and the bytes must still land where
// pdl/layout's Data model puts them.
func TestRebuildSplitsRuns(t *testing.T) {
	const unitSize, target = 32, 2
	res, err := pdl.Build(17, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := *res.Layout
	l.Stripes = slices.Clone(l.Stripes)
	slices.Reverse(l.Stripes)
	m, err := pdl.NewMapper(&l, l.Size)
	if err != nil {
		t.Fatal(err)
	}
	disks := make([]store.Backend, m.Disks())
	for d := range disks {
		disks[d] = store.NewMemDisk(int64(l.Size) * unitSize)
	}
	s, err := store.New(m, unitSize, disks)
	if err != nil {
		t.Fatal(err)
	}
	model, err := layout.NewData(&l, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, unitSize)
	for logical := 0; logical < s.Capacity(); logical++ {
		payload(buf, logical)
		if err := s.Write(logical, buf); err != nil {
			t.Fatal(err)
		}
		if err := model.WriteLogical(logical, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fail(target); err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	replacement := store.NewMemDisk(int64(l.Size) * unitSize)
	if err := s.Rebuild(countingDisk{replacement, &writes}); err != nil {
		t.Fatal(err)
	}
	if n := writes.Load(); n != int64(l.Size) {
		t.Errorf("replacement took %d WriteAt calls for %d units laid out backwards, want one per unit", n, l.Size)
	}
	got := make([]byte, replacement.Size())
	if _, err := replacement.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model.DiskContents(target)) {
		t.Fatalf("rebuilt disk %d differs from the model's contents", target)
	}
}
