package pdl

import (
	"fmt"

	"repro/pdl/layout"
)

// Mapper is the serving hot path: precomputed O(1) translation between
// logical data-unit addresses and physical (disk, offset) positions, and
// the stripe lookups the pdl/plan compiler is built on. It reads
// layout.Mapping's dense tables, baking in the disk geometry (validated
// once at construction, so the per-lookup path is table access plus
// constant arithmetic). The Append* methods append into a caller-owned
// slice and never allocate once that slice has capacity. A Mapper is
// safe for concurrent readers once built.
type Mapper struct {
	l           *layout.Layout
	m           *layout.Mapping
	diskUnits   int
	copies      int
	dataPerCopy int
	capacity    int
	perCopy     int // stripes per layout copy
	// stripeOf[i] is the stripe, within one copy, of the copy's i-th
	// logical data unit: StripeOf in one division and two independent
	// loads.
	stripeOf []int32
}

// NewMapper builds the lookup tables for a layout with fully assigned
// parity, for disks of diskUnits units (a positive multiple of the layout
// size; the layout tiles vertically).
func NewMapper(l *layout.Layout, diskUnits int) (*Mapper, error) {
	if l.Size <= 0 {
		return nil, fmt.Errorf("pdl: NewMapper: layout size %d must be positive", l.Size)
	}
	m, err := layout.NewMapping(l)
	if err != nil {
		return nil, fmt.Errorf("pdl: NewMapper: %w", err)
	}
	return NewMapperFromMapping(m, diskUnits)
}

// NewMapperFromMapping wraps already-built mapping tables (from
// layout.NewMapping) as a Mapper for disks of diskUnits units, sharing
// the tables instead of rebuilding them — for callers that also use the
// Mapping directly (e.g. the simulator or the layout Data engine).
func NewMapperFromMapping(m *layout.Mapping, diskUnits int) (*Mapper, error) {
	l := m.Layout()
	if diskUnits <= 0 || diskUnits%l.Size != 0 {
		return nil, fmt.Errorf("pdl: NewMapper: disk size %d not a positive multiple of layout size %d", diskUnits, l.Size)
	}
	copies := diskUnits / l.Size
	stripeOf := make([]int32, m.DataUnits())
	for i := range stripeOf {
		stripeOf[i] = int32(m.StripeAt(m.ForwardUnit(i)))
	}
	return &Mapper{
		l:           l,
		m:           m,
		diskUnits:   diskUnits,
		copies:      copies,
		dataPerCopy: m.DataUnits(),
		capacity:    m.DataUnits() * copies,
		perCopy:     m.NumStripes(),
		stripeOf:    stripeOf,
	}, nil
}

// DataUnits returns the number of addressable logical data units.
func (t *Mapper) DataUnits() int { return t.capacity }

// DiskUnits returns the configured disk size in units.
func (t *Mapper) DiskUnits() int { return t.diskUnits }

// Disks returns the number of disks in the array.
func (t *Mapper) Disks() int { return t.l.V }

// Stripes returns the total number of parity stripes across all layout
// copies on the configured disks.
func (t *Mapper) Stripes() int { return t.perCopy * t.copies }

// Map translates a logical address to its physical position: one table
// lookup plus constant arithmetic (Condition 4).
func (t *Mapper) Map(logical int) (layout.Unit, error) {
	if logical < 0 || logical >= t.capacity {
		return layout.Unit{}, fmt.Errorf("pdl: Map: logical %d outside [0,%d)", logical, t.capacity)
	}
	copyIdx := logical / t.dataPerCopy
	u := t.m.ForwardUnit(logical - copyIdx*t.dataPerCopy)
	u.Offset += copyIdx * t.l.Size
	return u, nil
}

// Logical inverts Map; ok is false for parity units or positions outside
// the array.
func (t *Mapper) Logical(u layout.Unit) (int, bool) {
	if u.Disk < 0 || u.Disk >= t.l.V || u.Offset < 0 || u.Offset >= t.diskUnits {
		return 0, false
	}
	copyIdx := u.Offset / t.l.Size
	base := t.m.LogicalIndex(u.Disk, u.Offset-copyIdx*t.l.Size)
	if base < 0 {
		return 0, false
	}
	return base + copyIdx*t.dataPerCopy, true
}

// StripeOf returns the index (in [0, Stripes())) of the parity stripe
// containing a logical address, along with the address's home unit.
func (t *Mapper) StripeOf(logical int) (stripe int, home layout.Unit, err error) {
	if logical < 0 || logical >= t.capacity {
		return 0, layout.Unit{}, fmt.Errorf("pdl: StripeOf: logical %d outside [0,%d)", logical, t.capacity)
	}
	copyIdx := logical / t.dataPerCopy
	base := logical - copyIdx*t.dataPerCopy
	u := t.m.ForwardUnit(base)
	u.Offset += copyIdx * t.l.Size
	return copyIdx*t.perCopy + int(t.stripeOf[base]), u, nil
}

// AppendStripeUnits appends every unit of a stripe (copy-adjusted, in
// stripe order, parity included) to dst and returns the extended slice.
func (t *Mapper) AppendStripeUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error) {
	si, copyBase, err := t.splitStripe("AppendStripeUnits", stripe)
	if err != nil {
		return dst, err
	}
	for _, su := range t.m.StripeUnits(si) {
		dst = append(dst, layout.Unit{Disk: su.Disk, Offset: su.Offset + copyBase})
	}
	return dst, nil
}

// ParityShards returns the layout's parity units per stripe (m): the
// number of simultaneous disk failures the array's erasure code must
// tolerate.
func (t *Mapper) ParityShards() int { return t.m.ParityShards() }

// AppendParityUnits appends the stripe's m parity units (copy-adjusted,
// in parity-shard order k..k+m-1) to dst and returns the extended slice.
func (t *Mapper) AppendParityUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error) {
	si, copyBase, err := t.splitStripe("AppendParityUnits", stripe)
	if err != nil {
		return dst, err
	}
	for j := 0; j < t.m.ParityShards(); j++ {
		pu := t.m.ParityUnitAt(si, j)
		dst = append(dst, layout.Unit{Disk: pu.Disk, Offset: pu.Offset + copyBase})
	}
	return dst, nil
}

// ShardAt returns the erasure-code shard index of a physical unit within
// its stripe — data units are 0..k-1 in stripe-position order, parity
// unit j is k+j — or -1 when the unit lies outside the array.
func (t *Mapper) ShardAt(u layout.Unit) int {
	if u.Disk < 0 || u.Disk >= t.l.V || u.Offset < 0 || u.Offset >= t.diskUnits {
		return -1
	}
	return t.m.ShardIndex(u.Disk, u.Offset%t.l.Size)
}

// splitStripe resolves a global stripe index into its per-copy index and
// the copy's offset base.
func (t *Mapper) splitStripe(op string, stripe int) (si, copyBase int, err error) {
	if stripe < 0 || stripe >= t.perCopy*t.copies {
		return 0, 0, fmt.Errorf("pdl: %s: stripe %d outside [0,%d)", op, stripe, t.perCopy*t.copies)
	}
	return stripe % t.perCopy, (stripe / t.perCopy) * t.l.Size, nil
}
