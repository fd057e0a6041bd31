package store

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// VecOp is one operation of a batched request vector passed to ReadVec
// or WriteVec: all or part of one data unit.
type VecOp struct {
	// Logical is the data unit addressed.
	Logical int

	// Within is the first byte of the unit addressed; the zero value with
	// a UnitSize Buf is the whole unit.
	Within int

	// Buf is the payload, bytes [Within, Within+len(Buf)) of the unit:
	// the destination for ReadVec, the source for WriteVec. It must be
	// non-empty and end inside the unit.
	Buf []byte
}

// ReadVec serves a batch of reads in one pass: ops are grouped by
// parity stripe and each stripe's lock is acquired once for all of its
// ops, so a batch touching b stripes costs b lock acquisitions instead
// of len(ops), and the ops of one stripe never mix bytes from before and
// after a concurrent write to it. Ops on distinct stripes execute in an
// unspecified order. Like Read, it is zero-allocation in steady state
// and safe for concurrent use. On error some ops may already have
// completed, and the buffers of the failing stripe's ops are undefined
// (a degraded read that fails mid-XOR leaves its partial accumulation
// behind).
func (s *Store) ReadVec(ops []VecOp) error { return s.runVec("ReadVec", ops, false) }

// WriteVec stores a batch of writes in one pass: ops are grouped by
// parity stripe, each stripe's write lock is acquired once for all of
// its ops, so concurrent reads of a stripe see all of its ops or none,
// and — the batching payoff — a group that covers every data unit of its
// stripe is promoted to a single Condition 5 full-stripe write (parity
// from the new payloads alone, no pre-reads) instead of len(group)
// read-modify-writes. Groups that do not cover their stripe, or contain
// duplicate addresses or partial units, fall back to per-op small writes
// in address order, duplicates in submission order (the last writer of
// each byte wins). Ops on distinct stripes execute in an unspecified
// order. Zero-allocation in steady state and safe for concurrent use. On
// error some ops may already have been applied.
func (s *Store) WriteVec(ops []VecOp) error { return s.runVec("WriteVec", ops, true) }

// runVec runs a batch of ops as one request: one piece per op,
// sorted by (stripe, logical) — stably, so duplicate writes to one
// address keep submission order.
func (s *Store) runVec(op string, ops []VecOp, write bool) error {
	if len(ops) == 0 {
		return nil
	}
	sc := s.pool.Get().(*scratch)
	defer s.finish(sc, write, time.Now())
	for i := range ops {
		o := &ops[i]
		if len(o.Buf) == 0 || o.Within < 0 || o.Within > s.unitSize-len(o.Buf) {
			return fmt.Errorf("store: %s: op %d: bytes [%d,+%d) of a unit of %d", op, i, o.Within, len(o.Buf), s.unitSize)
		}
		stripe, _, err := s.mapper.StripeOf(o.Logical)
		if err != nil {
			return fmt.Errorf("store: %s: op %d: %w", op, i, err)
		}
		sc.pieces = append(sc.pieces, piece{stripe: stripe, logical: o.Logical, within: o.Within, buf: o.Buf})
	}
	slices.SortStableFunc(sc.pieces, func(a, b piece) int {
		return cmp.Or(cmp.Compare(a.stripe, b.stripe), cmp.Compare(a.logical, b.logical))
	})
	_, err := s.run(sc, sc.pieces, write)
	return err
}
