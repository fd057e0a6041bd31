package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// windowRig is a store on one copy of G17 (272 stripes, so a 256-lock
// table) whose disks are counting VecDisks over MemDisks, beside
// pdl/layout's Data model of the same layout and code.
type windowRig struct {
	s        *store.Store
	disks    []*store.VecDisk
	model    *layout.Data
	unitSize int
	k        int // data units per stripe
	// starts[s] is the byte offset of stripe s's first data unit;
	// starts[Stripes()] is the store's size.
	starts []int64
}

func newWindowRig(t *testing.T, m, unitSize int) *windowRig {
	t.Helper()
	res, err := pdl.Build(17, 5, pdl.WithParityShards(m))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := res.NewMapper(res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	r := &windowRig{unitSize: unitSize, k: 5 - m}
	backends := make([]store.Backend, mp.Disks())
	for d := range backends {
		vd := &store.VecDisk{Backend: store.NewMemDisk(int64(res.Layout.Size) * int64(unitSize))}
		r.disks = append(r.disks, vd)
		backends[d] = vd
	}
	if r.s, err = store.New(mp, unitSize, backends); err != nil {
		t.Fatal(err)
	}
	if r.model, err = layout.NewDataCode(res.Layout, unitSize, r.s.Code()); err != nil {
		t.Fatal(err)
	}
	// The windows below are byte ranges of whole stripes: G17 numbers its
	// data units stripe by stripe.
	for l := 0; l < r.s.Capacity(); l++ {
		stripe, _, err := mp.StripeOf(l)
		if err != nil || stripe != l/r.k {
			t.Fatalf("logical %d in stripe %d (%v); want stripe %d", l, stripe, err, l/r.k)
		}
	}
	for stripe := 0; stripe <= mp.Stripes(); stripe++ {
		r.starts = append(r.starts, int64(stripe*r.k*unitSize))
	}
	return r
}

// calls snapshots each disk's vectored-write count.
func (r *windowRig) calls() []int64 {
	out := make([]int64, len(r.disks))
	for d, vd := range r.disks {
		out[d] = vd.Calls.Load()
	}
	return out
}

// writeAt writes p at off through the store and, once it succeeds, into
// the model.
func (r *windowRig) writeAt(t *testing.T, p []byte, off int64) {
	t.Helper()
	if n, err := r.s.WriteAt(p, off); n != len(p) || err != nil {
		t.Fatalf("WriteAt(%d bytes at %d) = %d, %v", len(p), off, n, err)
	}
	r.modelWrite(t, p, off)
}

// modelWrite writes p at off into the model alone.
func (r *windowRig) modelWrite(t *testing.T, p []byte, off int64) {
	t.Helper()
	us := int64(r.unitSize)
	for len(p) > 0 {
		u, err := r.model.ReadLogical(int(off / us))
		if err != nil {
			t.Fatal(err)
		}
		c := copy(u[off%us:], p)
		if err := r.model.WriteLogical(int(off/us), u); err != nil {
			t.Fatal(err)
		}
		p, off = p[c:], off+int64(c)
	}
}

// check fails unless every disk outside down holds the model's bytes,
// the logical space reads back as the model's, and parity verifies.
func (r *windowRig) check(t *testing.T, down ...int) {
	t.Helper()
	for d := range r.disks {
		if slices.Contains(down, d) {
			continue
		}
		want := r.model.DiskContents(d)
		got := make([]byte, len(want))
		if _, err := r.s.DiskBackend(d).ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("disk %d differs from the model", d)
		}
	}
	all := make([]byte, r.s.Size())
	if _, err := r.s.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < r.s.Capacity(); l++ {
		want, _ := r.model.ReadLogical(l)
		if !bytes.Equal(all[l*r.unitSize:(l+1)*r.unitSize], want) {
			t.Fatalf("logical %d reads back differently from the model", l)
		}
	}
	if err := r.s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// wantCalls fails unless each disk took exactly n vectored writes since
// before, skipping the disks in down, which must have taken none.
func (r *windowRig) wantCalls(t *testing.T, before []int64, n int64, down ...int) {
	t.Helper()
	for d, c := range r.calls() {
		want := n
		if slices.Contains(down, d) {
			want = 0
		}
		if c-before[d] != want {
			t.Errorf("disk %d took %d vectored writes, want %d", d, c-before[d], want)
		}
	}
}

// TestWindowOneWritePerDisk pins the window writer's I/O shape on G17,
// which places each disk's units of consecutive stripes at consecutive
// offsets: a WriteAt of 2.5 windows of whole stripes reaches every disk
// as exactly one vectored write per window (three), with no pre-read,
// Stats still counting one write per unit; a WriteVec of two windows'
// units in shuffled order does the same in two.
func TestWindowOneWritePerDisk(t *testing.T) {
	const unitSize = 64
	r := newWindowRig(t, 1, unitSize)
	stripes := store.RebuildChunk * 5 / 2
	p := payload(make([]byte, stripes*r.k*unitSize), 1)
	before, st := r.calls(), r.s.Stats()
	r.writeAt(t, p, 0)
	r.wantCalls(t, before, 3)
	var writes, reads int64
	for d, ds := range r.s.Stats().Disks {
		writes += ds.Writes - st.Disks[d].Writes
		reads += ds.Reads - st.Disks[d].Reads
	}
	if writes != int64(stripes*5) || reads != 0 {
		t.Errorf("Stats counts %d writes and %d reads for %d whole stripes, want %d and 0", writes, reads, stripes, stripes*5)
	}
	r.check(t)

	t.Run("WriteVec", func(t *testing.T) {
		lo := r.starts[100] / unitSize
		ops := make([]store.VecOp, 2*store.RebuildChunk*r.k)
		for i := range ops {
			ops[i] = store.VecOp{Logical: int(lo) + i, Buf: payload(make([]byte, unitSize), 7*i)}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		before := r.calls()
		if err := r.s.WriteVec(ops); err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			if err := r.model.WriteLogical(o.Logical, o.Buf); err != nil {
				t.Fatal(err)
			}
		}
		r.wantCalls(t, before, 2)
		r.check(t)
	})
}

// TestWindowLockWrap writes a window whose stripes' locks wrap past the
// end of the 256-lock table (stripes 200..263 take locks 200..255 and
// 0..7) in one vectored write per disk, while a second writer's windows
// over stripes 0..63 contend for locks 0..7, a reader reads across the
// wrap, and Fail and Rebuild take every lock in ascending order: a window
// that took its locks out of that order would deadlock against them.
func TestWindowLockWrap(t *testing.T) {
	const unitSize = 64
	r := newWindowRig(t, 1, unitSize)
	if n := r.s.Mapper().Stripes(); n <= 256 {
		t.Fatalf("%d stripes do not wrap a 256-lock table", n)
	}
	wrapped, low := r.starts[200], r.starts[0]
	span := store.RebuildChunk * r.k * unitSize
	before := r.calls()
	r.writeAt(t, payload(make([]byte, span), 3), wrapped)
	r.wantCalls(t, before, 1)
	r.check(t)

	rounds := 200
	if raceEnabled {
		rounds = 40
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, off := range []int64{wrapped, low} {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			p := make([]byte, span)
			for i := 0; i < rounds; i++ {
				if _, err := r.s.WriteAt(payload(p, i), off); err != nil {
					errs <- err
					return
				}
			}
		}(off)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if err := r.s.Fail(i % 17); err != nil {
				errs <- err
				return
			}
			if err := r.s.Rebuild(store.NewMemDisk(r.disks[0].Size())); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := make([]byte, 2*unitSize*r.k)
		for i := 0; i < rounds; i++ {
			if _, err := r.s.ReadAt(p, wrapped+int64(span)-int64(len(p)/2)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	last := payload(make([]byte, span), rounds-1)
	for _, off := range []int64{wrapped, low} {
		r.modelWrite(t, last, off)
	}
	r.check(t)
}

// TestWindowUnalignedEnds writes from the middle of one stripe's second
// unit to the middle of another stripe's third: the partial stripes at
// either end are read-modify-writes, the whole stripes between them two
// windows (64 and 32 stripes) of one vectored write per disk each.
func TestWindowUnalignedEnds(t *testing.T) {
	const unitSize = 64
	r := newWindowRig(t, 1, unitSize)
	r.writeAt(t, payload(make([]byte, r.s.Size()), 5), 0)
	from := r.starts[3] + unitSize + 17
	to := r.starts[3+1+store.RebuildChunk*3/2] + 2*unitSize + 40
	before := r.calls()
	r.writeAt(t, payload(make([]byte, to-from), 9), from)
	r.wantCalls(t, before, 2)
	r.check(t)
}

// TestWindowFailedDisks writes the whole store in windows with 0, 1 and
// 2 disks of a two-parity Reed–Solomon array down: a failed disk takes
// no write, every other disk one per window, the store reads back as the
// model, and Rebuild reconstructs each failed disk as the model holds it.
func TestWindowFailedDisks(t *testing.T) {
	const unitSize = 32
	for nf := 0; nf <= 2; nf++ {
		t.Run(fmt.Sprintf("failed%d", nf), func(t *testing.T) {
			r := newWindowRig(t, 2, unitSize)
			down := []int{4, 11}[:nf]
			for _, d := range down {
				if err := r.s.Fail(d); err != nil {
					t.Fatal(err)
				}
			}
			stripes := r.s.Mapper().Stripes()
			before := r.calls()
			r.writeAt(t, payload(make([]byte, r.s.Size()), nf), 0)
			windows := int64(stripes+store.RebuildChunk-1) / store.RebuildChunk
			r.wantCalls(t, before, windows, down...)
			r.check(t, down...)
			for range down {
				if err := r.s.Rebuild(store.NewMemDisk(r.disks[0].Size())); err != nil {
					t.Fatal(err)
				}
			}
			r.check(t)
		})
	}
}

// TestWindowRacesRebuildAndFail runs window writes of whole stripes
// against Fail and Rebuild cycles of one and two disks on a two-parity
// array (run it under -race): every write lands whether its window is
// healthy, degraded or half rebuilt, so when the writer stops the store
// matches the model, disk by disk, and its parity verifies.
func TestWindowRacesRebuildAndFail(t *testing.T) {
	const unitSize = 32
	setProcs(t, 4)
	r := newWindowRig(t, 2, unitSize)
	stripes := r.s.Mapper().Stripes()
	stop := make(chan struct{})
	done := make(chan struct{})
	var werr error
	var wrote atomic.Int64
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := rng.Intn(stripes)
			hi := min(stripes, lo+1+rng.Intn(2*store.RebuildChunk))
			from, to := r.starts[lo], r.starts[hi]
			p := payload(make([]byte, to-from), i)
			if n, err := r.s.WriteAt(p, from); n != len(p) || err != nil {
				werr = fmt.Errorf("WriteAt(%d bytes at %d) = %d, %v", len(p), from, n, err)
				return
			}
			for j := 0; j < len(p); j += unitSize {
				if err := r.model.WriteLogical(int(from)/unitSize+j/unitSize, p[j:j+unitSize]); err != nil {
					werr = err
					return
				}
			}
			wrote.Add(1)
		}
	}()
	// waitWrites lets the writer finish two more windows, so that every
	// state below sees some.
	waitWrites := func() {
		for w := wrote.Load(); wrote.Load() < w+2; {
			select {
			case <-done:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	cycles := 12
	if raceEnabled {
		cycles = 4
	}
	for c := 0; c < cycles; c++ {
		down := []int{c % 17, (c*5 + 3) % 17}[:1+c%2]
		for _, d := range down {
			if err := r.s.Fail(d); err != nil {
				t.Fatal(err)
			}
			waitWrites()
		}
		for range down {
			if err := r.s.Rebuild(store.NewMemDisk(r.disks[0].Size())); err != nil {
				t.Fatal(err)
			}
			waitWrites()
		}
	}
	close(stop)
	<-done
	if werr != nil {
		t.Fatal(werr)
	}
	r.check(t)
}

// TestWindowErrorCountsFinishedWindows fails one disk's second vectored
// write: a WriteAt of two windows returns the first window's bytes and
// the backend's error.
func TestWindowErrorCountsFinishedWindows(t *testing.T) {
	const unitSize = 64
	r := newWindowRig(t, 1, unitSize)
	r.disks[0].FailAfter = 1
	window := store.RebuildChunk * r.k * unitSize
	n, err := r.s.WriteAt(payload(make([]byte, 2*window), 1), 0)
	if n != window || !errors.Is(err, store.ErrVecDisk) {
		t.Fatalf("WriteAt of two windows, second failing = %d, %v; want %d, %v", n, err, window, store.ErrVecDisk)
	}
}
