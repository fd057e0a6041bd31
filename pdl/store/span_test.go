package store_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// TestSpanStripeAtomic pins that one stripe's part of a request is
// atomic. A writer alternates all-0xAA and all-0xBB writes over bytes of
// stripe 0 while a reader reads the same bytes; every read must return a
// single byte value, never a mix of two writes.
func TestSpanStripeAtomic(t *testing.T) {
	const unitSize = 64
	res, err := pdl.Build(17, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Mapper()
	units, err := m.AppendStripeUnits(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stripe 0's data units are logical 0..k-1.
	k := len(units) - m.ParityShards()
	for l := 0; l <= k; l++ {
		if stripe, _, _ := m.StripeOf(l); (stripe == 0) != (l < k) {
			t.Fatalf("logical %d in stripe %d; want stripe 0 to hold exactly 0..%d", l, stripe, k-1)
		}
	}
	reads := 200_000
	if raceEnabled {
		reads = 20_000
	}
	for _, tc := range []struct {
		name   string
		off, n int  // the bytes written and read
		vec    bool // read them with ReadVec (whole units) instead of ReadAt
	}{
		{"ReadAt/whole-stripe-WriteAt", 0, k * unitSize, false},
		{"ReadAt/partial-WriteAt", unitSize / 2, (k - 1) * unitSize, false},
		{"ReadVec/partial-WriteAt", 0, (k - 1) * unitSize, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fill := [2][]byte{bytes.Repeat([]byte{0xAA}, tc.n), bytes.Repeat([]byte{0xBB}, tc.n)}
			if _, err := s.WriteAt(fill[0], int64(tc.off)); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			werr := make(chan error, 1)
			go func() {
				for i := 1; ; i++ {
					select {
					case <-stop:
						werr <- nil
						return
					default:
					}
					if _, err := s.WriteAt(fill[i%2], int64(tc.off)); err != nil {
						werr <- err
						return
					}
				}
			}()
			got := make([]byte, tc.n)
			var ops []store.VecOp
			for u := 0; tc.vec && u < tc.n/unitSize; u++ {
				ops = append(ops, store.VecOp{Logical: tc.off/unitSize + u, Buf: got[u*unitSize : (u+1)*unitSize]})
			}
			torn := 0
			var rerr error
			for r := 0; r < reads && rerr == nil; r++ {
				if tc.vec {
					rerr = s.ReadVec(ops)
				} else {
					_, rerr = s.ReadAt(got, int64(tc.off))
				}
				if (got[0] != 0xAA && got[0] != 0xBB) || bytes.Count(got, got[:1]) != len(got) {
					torn++
				}
			}
			close(stop)
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
			if torn > 0 {
				t.Errorf("%d of %d reads of bytes [%d,%d) mixed two writes", torn, reads, tc.off, tc.off+tc.n)
			}
		})
	}
}

// FuzzStoreSpans drives the stripe-group executor with a seeded op list
// — ReadAt and WriteAt at any offset and length, unaligned and clipped at
// the end of the store included, and WriteVec/ReadVec batches with
// duplicate addresses — on XOR and on two-parity Reed–Solomon with 0…m
// disks failed, and checks every result against pdl/layout's Data model:
// each read's bytes and count, that a write past the end changes nothing,
// the whole logical space after the ops, and each failed disk as Rebuild
// reconstructs it. Run as a CI smoke.
func FuzzStoreSpans(f *testing.F) {
	f.Add(false, uint8(0), int64(1), uint8(40))
	f.Add(false, uint8(1), int64(2), uint8(64))
	f.Add(true, uint8(0), int64(3), uint8(40))
	f.Add(true, uint8(1), int64(4), uint8(64))
	f.Add(true, uint8(2), int64(5), uint8(64))
	f.Fuzz(func(t *testing.T, rs bool, nfail uint8, seed int64, nops uint8) {
		const unitSize = 16
		tc := codeRows(t)[0]
		if rs {
			tc = codeRows(t)[2]
		}
		s, l := tc.newStore(t, unitSize)
		model, err := layout.NewDataCode(l, unitSize, tc.code)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		size := s.Size()
		failed := rng.Perm(l.V)[:int(nfail)%(tc.code.ParityShards()+1)]
		slices.Sort(failed)
		for _, d := range failed {
			if err := s.Fail(d); err != nil {
				t.Fatal(err)
			}
		}
		// want returns the model's bytes [off, off+n), n clipped to size.
		want := func(off int64, n int) []byte {
			var out []byte
			for b := off; b < size && len(out) < n; b = off + int64(len(out)) {
				u, err := model.ReadLogical(int(b / unitSize))
				if err != nil {
					t.Fatal(err)
				}
				u = u[b%unitSize:]
				out = append(out, u[:min(len(u), n-len(out))]...)
			}
			return out
		}
		modelWrite := func(p []byte, off int64) {
			for len(p) > 0 {
				u, err := model.ReadLogical(int(off / unitSize))
				if err != nil {
					t.Fatal(err)
				}
				c := copy(u[off%unitSize:], p)
				if err := model.WriteLogical(int(off/unitSize), u); err != nil {
					t.Fatal(err)
				}
				p, off = p[c:], off+int64(c)
			}
		}
		// span picks an offset and length: mostly inside the store, some
		// clipped at its end, a few far past it.
		span := func() (int64, int) {
			n := rng.Intn(3*int(size)/4 + 1)
			switch rng.Intn(16) {
			case 0, 1:
				return size - int64(rng.Intn(3*unitSize)), n
			case 2:
				return size + int64(rng.Intn(1<<20)), n
			case 3:
				return math.MaxInt64 - int64(rng.Intn(64)), n
			default:
				return rng.Int63n(size), n
			}
		}
		for op := 0; op < int(nops)%96; op++ {
			switch rng.Intn(4) {
			case 0:
				off, n := span()
				got := make([]byte, n)
				c, err := s.ReadAt(got, off)
				w := want(off, n)
				wantErr := error(nil)
				if len(w) < n {
					wantErr = io.EOF
				}
				if c != len(w) || !errors.Is(err, wantErr) || !bytes.Equal(got[:c], w) {
					t.Fatalf("op %d: ReadAt(%d bytes at %d) = %d, %v; want %d, %v and the model's bytes", op, n, off, c, err, len(w), wantErr)
				}
			case 1:
				off, n := span()
				p := make([]byte, n)
				rng.Read(p)
				c, err := s.WriteAt(p, off)
				if off > size-int64(n) {
					if c != 0 || err == nil {
						t.Fatalf("op %d: WriteAt(%d bytes at %d) past the end = %d, %v; want 0 and an error", op, n, off, c, err)
					}
					continue
				}
				if c != n || err != nil {
					t.Fatalf("op %d: WriteAt(%d bytes at %d) = %d, %v", op, n, off, c, err)
				}
				modelWrite(p, off)
			default:
				// A batch of unit ops: a run of consecutive units (whole
				// stripes, when it covers them) plus random units, with a
				// duplicate address now and then.
				ops := make([]store.VecOp, 1+rng.Intn(12))
				base := rng.Intn(s.Capacity())
				for i := range ops {
					logical := (base + i) % s.Capacity()
					if rng.Intn(3) == 0 {
						logical = rng.Intn(s.Capacity())
					}
					if i > 0 && rng.Intn(5) == 0 {
						logical = ops[rng.Intn(i)].Logical
					}
					ops[i] = store.VecOp{Logical: logical, Buf: make([]byte, unitSize)}
					rng.Read(ops[i].Buf)
				}
				if rng.Intn(2) == 0 {
					if err := s.WriteVec(ops); err != nil {
						t.Fatalf("op %d: WriteVec: %v", op, err)
					}
					for _, o := range ops {
						if err := model.WriteLogical(o.Logical, o.Buf); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				if err := s.ReadVec(ops); err != nil {
					t.Fatalf("op %d: ReadVec: %v", op, err)
				}
				for _, o := range ops {
					if w, _ := model.ReadLogical(o.Logical); !bytes.Equal(o.Buf, w) {
						t.Fatalf("op %d: ReadVec of logical %d differs from the model", op, o.Logical)
					}
				}
			}
		}
		all := make([]byte, size)
		if _, err := s.ReadAt(all, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all, want(0, int(size))) {
			t.Fatalf("failed %v: store differs from the model after %d ops", failed, int(nops)%96)
		}
		for _, d := range failed {
			dst := store.NewMemDisk(int64(l.Size) * unitSize)
			if err := s.Rebuild(dst); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, dst.Size())
			if _, err := dst.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model.DiskContents(d)) {
				t.Fatalf("failed %v: rebuilt disk %d differs from the model", failed, d)
			}
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatal(err)
		}
	})
}
