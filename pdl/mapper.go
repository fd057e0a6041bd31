package pdl

import (
	"fmt"

	"repro/pdl/layout"
)

// Mapper is the serving hot path: precomputed O(1) translation between
// logical data-unit addresses and physical (disk, offset) positions, with
// degraded-mode variants for reads while a disk is down and the stripe
// lookups the pdl/plan compiler is built on. The Append* methods are the
// allocation-free forms: they append into a caller-owned slice and never
// allocate once that slice has capacity. Implementations are safe for
// concurrent readers once built.
type Mapper interface {
	// DataUnits returns the number of addressable logical data units.
	DataUnits() int

	// DiskUnits returns the configured disk size in units.
	DiskUnits() int

	// Disks returns the number of disks in the array.
	Disks() int

	// Stripes returns the total number of parity stripes across all
	// layout copies on the configured disks.
	Stripes() int

	// Map translates a logical address to its physical position: one
	// table lookup plus constant arithmetic (Condition 4).
	Map(logical int) (layout.Unit, error)

	// MapRange appends the physical positions of the n consecutive
	// logical addresses starting at logical to dst and returns the
	// extended slice: the batched, allocation-free form of Map.
	MapRange(dst []layout.Unit, logical, n int) ([]layout.Unit, error)

	// Logical inverts Map; ok is false for parity units or positions
	// outside the array.
	Logical(u layout.Unit) (int, bool)

	// DegradedMap resolves a logical address while disk failed is down.
	// When the home unit survives, it is returned directly; when it lived
	// on the failed disk, the surviving units of its stripe are returned
	// so the caller can reconstruct the payload by XOR.
	DegradedMap(logical, failed int) (DegradedRead, error)

	// AppendSurvivors is the allocation-free DegradedMap: when logical's
	// home unit lies on disk failed, the stripe's surviving units
	// (including parity, in stripe order) are appended to dst. It returns
	// the extended slice, the home unit, and whether the home disk is the
	// failed one (dst is returned unchanged when it is not).
	AppendSurvivors(dst []layout.Unit, logical, failed int) (survivors []layout.Unit, home layout.Unit, degraded bool, err error)

	// StripeOf returns the index (in [0, Stripes())) of the parity stripe
	// containing a logical address, along with the address's home unit.
	StripeOf(logical int) (stripe int, home layout.Unit, err error)

	// ParityOf returns the first parity unit of a stripe, copy-adjusted.
	ParityOf(stripe int) (layout.Unit, error)

	// AppendStripeUnits appends every unit of a stripe (copy-adjusted, in
	// stripe order, parity included) to dst and returns the extended
	// slice.
	AppendStripeUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error)

	// ParityShards returns the layout's parity units per stripe (m): the
	// number of simultaneous disk failures the array's erasure code must
	// tolerate.
	ParityShards() int

	// AppendParityUnits appends the stripe's m parity units
	// (copy-adjusted, in parity-shard order k..k+m-1) to dst and returns
	// the extended slice; the generalization of ParityOf.
	AppendParityUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error)

	// ShardAt returns the erasure-code shard index of a physical unit
	// within its stripe — data units are 0..k-1 in stripe-position order,
	// parity unit j is k+j — or -1 when the unit lies outside the array.
	ShardAt(u layout.Unit) int
}

// DegradedRead is the result of Mapper.DegradedMap.
type DegradedRead struct {
	// Unit is the home position of the logical address (on the failed
	// disk when Degraded).
	Unit layout.Unit

	// Degraded reports whether the home disk is the failed one.
	Degraded bool

	// Survivors holds, when Degraded, the stripe's surviving units
	// (including parity) whose XOR reconstructs the payload.
	Survivors []layout.Unit
}

// tableMapper implements Mapper over layout.Mapping's precomputed dense
// tables, baking in the disk geometry (validated once at construction, so
// the per-lookup path is table access plus constant arithmetic) and adding
// the degraded-mode stripe resolution.
type tableMapper struct {
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
func NewMapper(l *layout.Layout, diskUnits int) (Mapper, error) {
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
func NewMapperFromMapping(m *layout.Mapping, diskUnits int) (Mapper, error) {
	l := m.Layout()
	if diskUnits <= 0 || diskUnits%l.Size != 0 {
		return nil, fmt.Errorf("pdl: NewMapper: disk size %d not a positive multiple of layout size %d", diskUnits, l.Size)
	}
	copies := diskUnits / l.Size
	stripeOf := make([]int32, m.DataUnits())
	for i := range stripeOf {
		stripeOf[i] = int32(m.StripeAt(m.ForwardUnit(i)))
	}
	return &tableMapper{
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

func (t *tableMapper) DataUnits() int { return t.capacity }

func (t *tableMapper) DiskUnits() int { return t.diskUnits }

func (t *tableMapper) Disks() int { return t.l.V }

func (t *tableMapper) Stripes() int { return t.perCopy * t.copies }

func (t *tableMapper) Map(logical int) (layout.Unit, error) {
	if logical < 0 || logical >= t.capacity {
		return layout.Unit{}, fmt.Errorf("pdl: Map: logical %d outside [0,%d)", logical, t.capacity)
	}
	copyIdx := logical / t.dataPerCopy
	u := t.m.ForwardUnit(logical - copyIdx*t.dataPerCopy)
	u.Offset += copyIdx * t.l.Size
	return u, nil
}

func (t *tableMapper) MapRange(dst []layout.Unit, logical, n int) ([]layout.Unit, error) {
	if n < 0 {
		return dst, fmt.Errorf("pdl: MapRange: negative count %d", n)
	}
	if logical < 0 || logical > t.capacity-n {
		return dst, fmt.Errorf("pdl: MapRange: [%d,%d) outside [0,%d)", logical, logical+n, t.capacity)
	}
	for i := logical; i < logical+n; i++ {
		copyIdx := i / t.dataPerCopy
		u := t.m.ForwardUnit(i - copyIdx*t.dataPerCopy)
		u.Offset += copyIdx * t.l.Size
		dst = append(dst, u)
	}
	return dst, nil
}

func (t *tableMapper) Logical(u layout.Unit) (int, bool) {
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

func (t *tableMapper) DegradedMap(logical, failed int) (DegradedRead, error) {
	if failed < 0 || failed >= t.l.V {
		return DegradedRead{}, fmt.Errorf("pdl: DegradedMap: failed disk %d outside [0,%d)", failed, t.l.V)
	}
	u, err := t.Map(logical)
	if err != nil {
		return DegradedRead{}, err
	}
	if u.Disk != failed {
		return DegradedRead{Unit: u}, nil
	}
	stripe := t.m.StripeUnits(t.m.StripeAt(u))
	survivors := t.appendStripeSurvivors(make([]layout.Unit, 0, len(stripe)-1), u, failed)
	return DegradedRead{Unit: u, Degraded: true, Survivors: survivors}, nil
}

func (t *tableMapper) AppendSurvivors(dst []layout.Unit, logical, failed int) ([]layout.Unit, layout.Unit, bool, error) {
	if failed < 0 || failed >= t.l.V {
		return dst, layout.Unit{}, false, fmt.Errorf("pdl: AppendSurvivors: failed disk %d outside [0,%d)", failed, t.l.V)
	}
	u, err := t.Map(logical)
	if err != nil {
		return dst, layout.Unit{}, false, err
	}
	if u.Disk != failed {
		return dst, u, false, nil
	}
	return t.appendStripeSurvivors(dst, u, failed), u, true, nil
}

// appendStripeSurvivors appends the surviving units of the stripe
// containing physical unit u (which lies on disk failed), copy-adjusted.
func (t *tableMapper) appendStripeSurvivors(dst []layout.Unit, u layout.Unit, failed int) []layout.Unit {
	copyBase := (u.Offset / t.l.Size) * t.l.Size
	for _, su := range t.m.StripeUnits(t.m.StripeAt(u)) {
		if su.Disk == failed {
			continue
		}
		dst = append(dst, layout.Unit{Disk: su.Disk, Offset: su.Offset + copyBase})
	}
	return dst
}

func (t *tableMapper) StripeOf(logical int) (int, layout.Unit, error) {
	if logical < 0 || logical >= t.capacity {
		return 0, layout.Unit{}, fmt.Errorf("pdl: Map: logical %d outside [0,%d)", logical, t.capacity)
	}
	copyIdx := logical / t.dataPerCopy
	base := logical - copyIdx*t.dataPerCopy
	u := t.m.ForwardUnit(base)
	u.Offset += copyIdx * t.l.Size
	return copyIdx*t.perCopy + int(t.stripeOf[base]), u, nil
}

func (t *tableMapper) ParityOf(stripe int) (layout.Unit, error) {
	si, copyBase, err := t.splitStripe("ParityOf", stripe)
	if err != nil {
		return layout.Unit{}, err
	}
	pu := t.m.StripeUnits(si)[t.m.ParityIndex(si)]
	return layout.Unit{Disk: pu.Disk, Offset: pu.Offset + copyBase}, nil
}

func (t *tableMapper) AppendStripeUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error) {
	si, copyBase, err := t.splitStripe("AppendStripeUnits", stripe)
	if err != nil {
		return dst, err
	}
	for _, su := range t.m.StripeUnits(si) {
		dst = append(dst, layout.Unit{Disk: su.Disk, Offset: su.Offset + copyBase})
	}
	return dst, nil
}

func (t *tableMapper) ParityShards() int { return t.m.ParityShards() }

func (t *tableMapper) AppendParityUnits(dst []layout.Unit, stripe int) ([]layout.Unit, error) {
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

func (t *tableMapper) ShardAt(u layout.Unit) int {
	if u.Disk < 0 || u.Disk >= t.l.V || u.Offset < 0 || u.Offset >= t.diskUnits {
		return -1
	}
	return t.m.ShardIndex(u.Disk, u.Offset%t.l.Size)
}

// splitStripe resolves a global stripe index into its per-copy index and
// the copy's offset base.
func (t *tableMapper) splitStripe(op string, stripe int) (si, copyBase int, err error) {
	if stripe < 0 || stripe >= t.perCopy*t.copies {
		return 0, 0, fmt.Errorf("pdl: %s: stripe %d outside [0,%d)", op, stripe, t.perCopy*t.copies)
	}
	return stripe % t.perCopy, (stripe / t.perCopy) * t.l.Size, nil
}
