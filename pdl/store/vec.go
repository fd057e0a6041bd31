package store

import (
	"fmt"
	"slices"
	"time"
)

// VecOp is one unit-granularity operation of a batched request vector
// passed to ReadVec or WriteVec.
type VecOp struct {
	// Logical is the data unit addressed.
	Logical int

	// Buf is the unit payload: the destination for ReadVec, the source
	// for WriteVec. It must be exactly UnitSize bytes.
	Buf []byte
}

// prepareVec validates ops and builds the stripe-major execution order in
// sc.order: ops grouped by stripe, ordered by logical address within a
// stripe (submission order breaking ties, so duplicate writes to one
// address land last-writer-wins).
func (s *Store) prepareVec(op string, sc *scratch, ops []VecOp) error {
	sc.stripes = sc.stripes[:0]
	sc.order = sc.order[:0]
	for i := range ops {
		if len(ops[i].Buf) != s.unitSize {
			return fmt.Errorf("store: %s: op %d: buf is %d bytes, want unit size %d", op, i, len(ops[i].Buf), s.unitSize)
		}
		stripe, _, err := s.mapper.StripeOf(ops[i].Logical)
		if err != nil {
			return fmt.Errorf("store: %s: op %d: %w", op, i, err)
		}
		sc.stripes = append(sc.stripes, int32(stripe))
		sc.order = append(sc.order, int32(i))
	}
	slices.SortFunc(sc.order, func(a, b int32) int {
		if c := int(sc.stripes[a]) - int(sc.stripes[b]); c != 0 {
			return c
		}
		if c := ops[a].Logical - ops[b].Logical; c != 0 {
			return c
		}
		return int(a) - int(b)
	})
	return nil
}

// ReadVec serves a batch of unit reads in one pass: ops are grouped by
// parity stripe and each stripe's lock is acquired once for all of its
// ops, so a batch touching b stripes costs b lock acquisitions instead
// of len(ops). Ops on distinct stripes execute in an unspecified order.
// Like Read, it is zero-allocation in steady state and safe for
// concurrent use. On error some ops may already have completed, and the
// buffers of the failing stripe's ops are undefined (a degraded read
// that fails mid-XOR leaves its partial accumulation behind).
func (s *Store) ReadVec(ops []VecOp) error {
	if len(ops) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { s.opHist[histRead].Record(time.Since(start)) }()
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	if err := s.prepareVec("ReadVec", sc, ops); err != nil {
		return err
	}
	for g := 0; g < len(sc.order); {
		stripe := int(sc.stripes[sc.order[g]])
		end := g + 1
		for end < len(sc.order) && int(sc.stripes[sc.order[end]]) == stripe {
			end++
		}
		lk := s.lockFor(stripe)
		lk.RLock()
		fs := s.failsFor(stripe)
		var err error
		for _, j := range sc.order[g:end] {
			o := &ops[j]
			if err = sc.pln.ReadM(o.Logical, fs.disks, &sc.p); err != nil {
				break
			}
			if err = s.execReadLocked(sc, 0, o.Buf); err != nil {
				break
			}
		}
		lk.RUnlock()
		if err != nil {
			return err
		}
		g = end
	}
	return nil
}

// WriteVec stores a batch of unit writes in one pass: ops are grouped by
// parity stripe, each stripe's write lock is acquired once for all of
// its ops, and — the batching payoff — a group that covers every data
// unit of its stripe is promoted to a single Condition 5 full-stripe
// write (parity from the new payloads alone, no pre-reads) instead of
// len(group) read-modify-writes. Groups that do not cover their stripe,
// or contain duplicate addresses, fall back to per-unit small writes in
// submission order (last writer wins). Ops on distinct stripes execute
// in an unspecified order. Zero-allocation in steady state and safe for
// concurrent use. On error some ops may already have been applied.
func (s *Store) WriteVec(ops []VecOp) error {
	if len(ops) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { s.opHist[histWrite].Record(time.Since(start)) }()
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	if err := s.prepareVec("WriteVec", sc, ops); err != nil {
		return err
	}
	for g := 0; g < len(sc.order); {
		stripe := int(sc.stripes[sc.order[g]])
		end := g + 1
		for end < len(sc.order) && int(sc.stripes[sc.order[end]]) == stripe {
			end++
		}
		lk := s.lockFor(stripe)
		lk.Lock()
		err := s.writeGroupLocked(sc, stripe, ops, sc.order[g:end])
		lk.Unlock()
		if err != nil {
			return err
		}
		g = end
	}
	return nil
}

// writeGroupLocked executes one stripe's slice of a write vector under
// the stripe's (held) write lock, promoting full-stripe coverage to the
// no-preread large-write path.
func (s *Store) writeGroupLocked(sc *scratch, stripe int, ops []VecOp, order []int32) error {
	fs := s.failsFor(stripe)
	if len(order) > 1 {
		units, err := s.mapper.AppendStripeUnits(sc.units[:0], stripe)
		sc.units = units[:0]
		if err != nil {
			return err
		}
		if len(order) == len(units)-s.pm {
			// The stripe's data units hold consecutive logical addresses
			// starting at the first data unit's; the group promotes when
			// its (sorted) addresses are exactly that run.
			k := len(units) - s.pm
			first := -1
			for _, u := range units {
				if s.mapper.ShardAt(u) >= k {
					continue
				}
				first, _ = s.mapper.Logical(u)
				break
			}
			promote := first >= 0
			for i, j := range order {
				if ops[j].Logical != first+i {
					promote = false
					break
				}
			}
			if promote {
				return s.writeStripeLocked(sc, stripe, units, func(i int) []byte {
					return ops[order[i]].Buf
				})
			}
		}
	}
	for _, j := range order {
		o := &ops[j]
		if err := sc.pln.WriteM(o.Logical, fs.disks, &sc.p); err != nil {
			return err
		}
		if err := s.execWriteLocked(sc, 0, o.Buf); err != nil {
			return err
		}
	}
	return nil
}
