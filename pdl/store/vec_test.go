package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/pdl/layout"
	"repro/pdl/store"
)

// TestWriteVecMatchesSequential drives random mixed batches (duplicates
// included) through WriteVec/ReadVec and checks every byte against a
// flat mirror maintained in submission order.
func TestWriteVecMatchesSequential(t *testing.T) {
	const unitSize = 32
	s := mustStore(t, 13, 4, 2, unitSize)
	mirror := make([][]byte, s.Capacity())
	for i := range mirror {
		mirror[i] = make([]byte, unitSize)
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 60; round++ {
		n := rng.Intn(48) + 1
		ops := make([]store.VecOp, n)
		for i := range ops {
			logical := rng.Intn(s.Capacity())
			// A third of the rounds write dense sequential runs so full
			// stripes coalesce and the promotion path is exercised.
			if round%3 == 0 {
				logical = (rng.Intn(s.Capacity()-n) + i) % s.Capacity()
			}
			buf := make([]byte, unitSize)
			rng.Read(buf)
			ops[i] = store.VecOp{Logical: logical, Buf: buf}
		}
		if err := s.WriteVec(ops); err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			copy(mirror[o.Logical], o.Buf)
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	got := make([]store.VecOp, s.Capacity())
	for i := range got {
		got[i] = store.VecOp{Logical: i, Buf: make([]byte, unitSize)}
	}
	if err := s.ReadVec(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Buf, mirror[i]) {
			t.Fatalf("logical %d diverges from mirror", i)
		}
	}
}

// TestWriteVecPromotion proves the full-stripe promotion happens: a batch
// covering whole stripes must issue zero physical reads (Condition 5 has
// no pre-reads), where the same ops written one by one read twice per op.
func TestWriteVecPromotion(t *testing.T) {
	const unitSize = 64
	s := mustStore(t, 9, 3, 1, unitSize)
	before := totalReads(s)
	// Whole logical space, sequential: every stripe's data units coalesce.
	ops := make([]store.VecOp, s.Capacity())
	for i := range ops {
		ops[i] = store.VecOp{Logical: i, Buf: payload(make([]byte, unitSize), i)}
	}
	if err := s.WriteVec(ops); err != nil {
		t.Fatal(err)
	}
	if got := totalReads(s) - before; got != 0 {
		t.Errorf("full-stripe batch issued %d physical reads, want 0", got)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	// The fallback path for comparison: the same writes one at a time are
	// read-modify-writes, two pre-reads each.
	before = totalReads(s)
	for i := range ops {
		if err := s.Write(i, ops[i].Buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := totalReads(s) - before; got != int64(2*len(ops)) {
		t.Errorf("unbatched writes issued %d physical reads, want %d", got, 2*len(ops))
	}
	// WriteAt promotes the same way: a span from the middle of stripe 0's
	// first unit to the middle of stripe 3's last covers stripes 1 and 2
	// whole, so only the pieces in stripes 0 and 3 are read-modify-writes,
	// two pre-reads (data and parity) each. Stripes 0..3 hold logical
	// units 0..n-1.
	n, edge := 0, 0 // edge counts the units of stripes 0 and 3
	for ; ; n++ {
		stripe, _, err := s.Mapper().StripeOf(n)
		if err != nil {
			t.Fatal(err)
		}
		if stripe > 3 {
			break
		}
		if stripe == 0 || stripe == 3 {
			edge++
		}
	}
	off := int64(unitSize / 2)
	p := payload(make([]byte, (n-1)*unitSize), 77)
	before = totalReads(s)
	if _, err := s.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
	if got, want := totalReads(s)-before, int64(2*edge); got != want {
		t.Errorf("WriteAt over stripes 0..3 issued %d physical reads, want %d (the %d units of stripes 0 and 3)", got, want, edge)
	}
	got := make([]byte, len(p))
	if _, err := s.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Error("WriteAt over stripes 0..3 reads back different bytes")
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func totalReads(s *store.Store) int64 {
	var n int64
	for _, d := range s.Stats().Disks {
		n += d.Reads
	}
	return n
}

// TestVecDegraded runs vec traffic with a disk down and across a
// rebuild: degraded batches must stay byte-correct and parity-clean.
func TestVecDegraded(t *testing.T) {
	const unitSize = 16
	s := mustStore(t, 9, 3, 2, unitSize)
	mirror := make([][]byte, s.Capacity())
	ops := make([]store.VecOp, s.Capacity())
	for i := range ops {
		mirror[i] = payload(make([]byte, unitSize), i)
		ops[i] = store.VecOp{Logical: i, Buf: append([]byte(nil), mirror[i]...)}
	}
	if err := s.WriteVec(ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	// Degraded reads of everything, batched.
	got := make([]store.VecOp, s.Capacity())
	for i := range got {
		got[i] = store.VecOp{Logical: i, Buf: make([]byte, unitSize)}
	}
	if err := s.ReadVec(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Buf, mirror[i]) {
			t.Fatalf("degraded read of logical %d diverges", i)
		}
	}
	// Degraded full-stripe batches (the promoted path skips the failed
	// disk; Rebuild later reconstructs from the survivors written here).
	for i := range ops {
		payload(ops[i].Buf, 1000+i)
		copy(mirror[i], ops[i].Buf)
	}
	if err := s.WriteVec(ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadVec(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Buf, mirror[i]) {
			t.Fatalf("post-rebuild read of logical %d diverges", i)
		}
	}
}

// TestVecErrors pins the validation behavior: byte ranges that are empty
// or leave their unit, and bad addresses, are rejected before any op
// executes.
func TestVecErrors(t *testing.T) {
	const unitSize = 16
	s := mustStore(t, 9, 3, 1, unitSize)
	if err := s.ReadVec(nil); err != nil {
		t.Errorf("empty ReadVec: %v", err)
	}
	if err := s.WriteVec(nil); err != nil {
		t.Errorf("empty WriteVec: %v", err)
	}
	for _, bad := range [][]store.VecOp{
		{{Logical: 0, Buf: make([]byte, unitSize+1)}},
		{{Logical: 0, Within: 1, Buf: make([]byte, unitSize)}},
		{{Logical: 0, Buf: nil}},
	} {
		if err := s.ReadVec(bad); err == nil {
			t.Errorf("ReadVec accepted %d bytes at byte %d of a unit", len(bad[0].Buf), bad[0].Within)
		}
		if err := s.WriteVec(bad); err == nil {
			t.Errorf("WriteVec accepted %d bytes at byte %d of a unit", len(bad[0].Buf), bad[0].Within)
		}
	}
	oob := []store.VecOp{{Logical: s.Capacity(), Buf: make([]byte, unitSize)}}
	if err := s.ReadVec(oob); err == nil {
		t.Error("ReadVec accepted an out-of-range address")
	}
	if err := s.WriteVec(oob); err == nil {
		t.Error("WriteVec accepted an out-of-range address")
	}
}

// TestVecPartialUnits runs ReadVec and WriteVec with partial pieces
// (VecOp.Within) on XOR and on two-parity Reed–Solomon with 0…m disks
// failed, against pdl/layout's Data model: overlapping partial pieces of
// one unit in one batch apply in submission order, a partial piece beside
// a whole stripe leaves that stripe's full-stripe promotion alone, and a
// batch holding an empty or out-of-unit range is refused before it
// changes anything.
func TestVecPartialUnits(t *testing.T) {
	const unitSize = 16
	for _, tc := range []codeRow{codeRows(t)[0], codeRows(t)[2]} {
		for nfail := 0; nfail <= tc.code.ParityShards(); nfail++ {
			t.Run(fmt.Sprintf("%s/%d-down", tc.name, nfail), func(t *testing.T) {
				s, l := tc.newStore(t, unitSize)
				model, err := layout.NewDataCode(l, unitSize, tc.code)
				if err != nil {
					t.Fatal(err)
				}
				// Fill every unit, so partial writes patch non-zero bytes.
				all := make([]store.VecOp, s.Capacity())
				for i := range all {
					all[i] = store.VecOp{Logical: i, Buf: payload(make([]byte, unitSize), i)}
					if err := model.WriteLogical(i, all[i].Buf); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.WriteVec(all); err != nil {
					t.Fatal(err)
				}
				for _, d := range rand.New(rand.NewSource(int64(nfail))).Perm(l.V)[:nfail] {
					if err := s.Fail(d); err != nil {
						t.Fatal(err)
					}
				}
				apply := func(ops []store.VecOp) {
					t.Helper()
					if err := s.WriteVec(ops); err != nil {
						t.Fatal(err)
					}
					for _, o := range ops {
						u, err := model.ReadLogical(o.Logical)
						if err != nil {
							t.Fatal(err)
						}
						copy(u[o.Within:], o.Buf)
						if err := model.WriteLogical(o.Logical, u); err != nil {
							t.Fatal(err)
						}
					}
				}
				// check reads every unit back, whole and as two partial
				// pieces in one batch, and compares with the model.
				check := func(what string) {
					t.Helper()
					for i := range all {
						w, err := model.ReadLogical(i)
						if err != nil {
							t.Fatal(err)
						}
						cut := 1 + i%(unitSize-1)
						ops := []store.VecOp{
							{Logical: i, Buf: make([]byte, unitSize)},
							{Logical: i, Within: cut, Buf: make([]byte, unitSize-cut)},
							{Logical: i, Buf: make([]byte, cut)},
						}
						if err := s.ReadVec(ops); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(ops[0].Buf, w) || !bytes.Equal(ops[2].Buf, w[:cut]) || !bytes.Equal(ops[1].Buf, w[cut:]) {
							t.Fatalf("%s: logical %d reads %x | %x %x, model %x", what, i, ops[0].Buf, ops[2].Buf, ops[1].Buf, w)
						}
					}
				}

				// Two overlapping partial pieces of one unit, then the same
				// in the other order on the next unit: per byte, the later
				// piece wins.
				for i, order := range [][2]int{{0, 1}, {1, 0}} {
					pieces := [2]store.VecOp{
						{Logical: 5 + i, Within: 2, Buf: payload(make([]byte, 10), 100+i)},
						{Logical: 5 + i, Within: 7, Buf: payload(make([]byte, 6), 200+i)},
					}
					apply([]store.VecOp{pieces[order[0]], pieces[order[1]]})
				}
				check("overlapping partial pieces")

				// A partial piece beside a whole stripe: the stripe still
				// promotes, so on a healthy array only the partial piece's
				// read-modify-write pre-reads (its data unit and every
				// parity, as in TestWriteVecPromotion).
				first := 1
				for stripeOf(t, s, first) == stripeOf(t, s, 0) {
					first++
				}
				var whole []store.VecOp
				for i := first; i < s.Capacity() && stripeOf(t, s, i) == stripeOf(t, s, first); i++ {
					whole = append(whole, store.VecOp{Logical: i, Buf: payload(make([]byte, unitSize), 300+i)})
				}
				if len(whole) != tc.k-tc.code.ParityShards() {
					t.Fatalf("stripe of unit %d has %d data units, want %d", first, len(whole), tc.k-tc.code.ParityShards())
				}
				ops := append([]store.VecOp{{Logical: 0, Within: 3, Buf: payload(make([]byte, 9), 400)}}, whole...)
				before := totalReads(s)
				apply(ops)
				if nfail == 0 {
					if got, want := totalReads(s)-before, int64(1+tc.code.ParityShards()); got != want {
						t.Errorf("partial piece beside stripe of %d units: %d pre-reads, want %d", len(whole), got, want)
					}
				}
				check("partial piece beside a whole stripe")

				// Refusals: the batch's valid piece is not applied either.
				for _, bad := range []store.VecOp{
					{Logical: 1, Within: -1, Buf: make([]byte, 4)},
					{Logical: 1, Within: 13, Buf: make([]byte, 4)},
					{Logical: 1, Buf: []byte{}},
				} {
					writes := totalWrites(s)
					batch := []store.VecOp{{Logical: 2, Within: 1, Buf: payload(make([]byte, 5), 500)}, bad}
					if err := s.WriteVec(batch); err == nil {
						t.Errorf("WriteVec accepted %d bytes at byte %d of a unit", len(bad.Buf), bad.Within)
					}
					if err := s.ReadVec(batch); err == nil {
						t.Errorf("ReadVec accepted %d bytes at byte %d of a unit", len(bad.Buf), bad.Within)
					}
					if d := totalWrites(s) - writes; d != 0 {
						t.Errorf("refused batch with %d bytes at byte %d wrote %d units", len(bad.Buf), bad.Within, d)
					}
				}
				check("refused batches")
				if nfail == 0 {
					if err := s.VerifyParity(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// stripeOf returns the stripe holding logical unit i.
func stripeOf(t *testing.T, s *store.Store, i int) int {
	t.Helper()
	st, _, err := s.Mapper().StripeOf(i)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func totalWrites(s *store.Store) int64 {
	var n int64
	for _, d := range s.Stats().Disks {
		n += d.Writes
	}
	return n
}
