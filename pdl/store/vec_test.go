package store_test

import (
	"bytes"
	"math/rand"
	"testing"

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

// TestVecErrors pins the validation behavior: bad buffer sizes and bad
// addresses are rejected before any op executes.
func TestVecErrors(t *testing.T) {
	const unitSize = 16
	s := mustStore(t, 9, 3, 1, unitSize)
	if err := s.ReadVec(nil); err != nil {
		t.Errorf("empty ReadVec: %v", err)
	}
	if err := s.WriteVec(nil); err != nil {
		t.Errorf("empty WriteVec: %v", err)
	}
	short := []store.VecOp{{Logical: 0, Buf: make([]byte, unitSize-1)}}
	if err := s.ReadVec(short); err == nil {
		t.Error("ReadVec accepted a short buffer")
	}
	if err := s.WriteVec(short); err == nil {
		t.Error("WriteVec accepted a short buffer")
	}
	oob := []store.VecOp{{Logical: s.Capacity(), Buf: make([]byte, unitSize)}}
	if err := s.ReadVec(oob); err == nil {
		t.Error("ReadVec accepted an out-of-range address")
	}
	if err := s.WriteVec(oob); err == nil {
		t.Error("WriteVec accepted an out-of-range address")
	}
}
