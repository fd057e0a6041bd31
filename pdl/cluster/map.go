// Package cluster shards one logical byte namespace across many pdlserve
// arrays — the paper's declustering idea applied one level up. Within an
// array, parity declustering spreads one disk's reconstruction load over
// all survivors; across arrays, the cluster layer stripes the namespace
// over N independent shards so each shard is its own failure domain: a
// shard whose array is degraded or rebuilding serves degraded without
// throttling the rest.
//
// Three pieces:
//
//   - Map: a deterministic shard map — a mapper of mappers. Where
//     layout.Mapping translates a logical data unit to (disk, offset)
//     with one table lookup plus constant arithmetic, Map translates a
//     cluster shard-unit to (shard, shard-local unit) the same way: a
//     flattened int32 cycle table plus div/mod. No state is consulted at
//     lookup time, so every client computes identical placements.
//
//   - Manifest: the versioned cluster.json naming the shards (endpoint,
//     capacity in shard-units, recorded state), written atomically
//     (temp + rename) and validated against hostile input, following the
//     array.json discipline of pdl/store/array.
//
//   - Client: ReadAt/WriteAt/Size/Stats over the whole namespace. A span
//     splits by shard; each shard's contiguous local range is started on
//     that shard's serve.Client, then awaited (feeding the server's
//     ReadVec/WriteVec batch path), with bounded per-shard
//     retry/reconnect on transport failure.
package cluster

import (
	"fmt"
	"math"
)

// Policy selects how Map assigns shard-units to shards.
type Policy string

const (
	// RoundRobin stripes shard-units one per shard in manifest order,
	// addressing min(capacity) units on every shard: perfectly balanced
	// load, with capacity above the smallest shard left unaddressed.
	RoundRobin Policy = "round-robin"

	// ByCapacity stripes shard-units proportionally to each shard's
	// capacity (smooth weighted round-robin), addressing every unit of
	// every shard: full capacity, load proportional to size.
	ByCapacity Policy = "capacity"
)

// ParsePolicy converts a command-line or manifest spelling into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case RoundRobin, ByCapacity:
		return Policy(s), nil
	}
	return "", fmt.Errorf("cluster: unknown policy %q (want %q or %q)", s, RoundRobin, ByCapacity)
}

// maxCycleLen bounds the flattened cycle tables. The cycle length is the
// sum of per-shard weights after gcd reduction, so capacities sharing a
// coarse granularity (the normal case: capacities are whole arrays)
// produce short cycles; pathologically coprime capacities are rejected
// rather than silently allocating huge tables.
const maxCycleLen = 1 << 20

// Map deterministically assigns the shard-units of one byte namespace to
// shards. Placement repeats in cycles: position p of every cycle lands
// on shard cycleShard[p] as that shard's cycleRank[p]-th unit of the
// cycle, so Locate is one div/mod plus two table lookups — the same
// flattened-table idiom as layout.Mapping, one level up.
//
// Unlike a hash ring, the map is exact: every shard-unit has one
// position, local units are contiguous per shard, and a contiguous span
// of the namespace touches one contiguous local byte range per shard
// (which is what lets the Client issue one ReadAt/WriteAt per shard).
type Map struct {
	unitBytes int64

	// cycleShard[p] = shard of cycle position p.
	cycleShard []int32
	// cycleRank[p] = how many earlier positions of the same cycle land
	// on cycleShard[p]: the unit's rank within its shard's cycle share.
	cycleRank []int32
	// perCycle[s] = shard s's units per cycle (its reduced weight).
	perCycle []int32

	cycles     int64 // full cycles in the namespace
	totalUnits int64 // cycles * len(cycleShard)
}

// NewMap builds the shard map for shards with the given capacities (in
// shard-units of unitBytes bytes) under policy.
func NewMap(unitBytes int64, units []int64, policy Policy) (*Map, error) {
	if unitBytes < 1 {
		return nil, fmt.Errorf("cluster: NewMap: unit bytes %d < 1", unitBytes)
	}
	if len(units) < 1 {
		return nil, fmt.Errorf("cluster: NewMap: no shards")
	}
	if _, err := ParsePolicy(string(policy)); err != nil {
		return nil, err
	}
	for s, u := range units {
		if u < 1 {
			return nil, fmt.Errorf("cluster: NewMap: shard %d has %d units, want >= 1", s, u)
		}
	}
	// Reduce capacities to per-cycle weights and a cycle count.
	weights := make([]int64, len(units))
	var cycles int64
	switch policy {
	case RoundRobin:
		cycles = units[0]
		for _, u := range units {
			cycles = min(cycles, u)
		}
		for s := range weights {
			weights[s] = 1
		}
	case ByCapacity:
		cycles = units[0]
		for _, u := range units[1:] {
			cycles = gcd(cycles, u)
		}
		for s, u := range units {
			weights[s] = u / cycles
		}
	}
	var cycleLen int64
	for _, w := range weights {
		cycleLen += w
	}
	if cycleLen > maxCycleLen {
		return nil, fmt.Errorf("cluster: NewMap: cycle of %d positions exceeds %d — shard capacities too coprime; round them to a common granularity", cycleLen, maxCycleLen)
	}
	total := cycles * cycleLen
	if total > math.MaxInt64/unitBytes {
		return nil, fmt.Errorf("cluster: NewMap: %d units of %d bytes overflow the byte namespace", total, unitBytes)
	}
	m := &Map{
		unitBytes:  unitBytes,
		cycleShard: make([]int32, cycleLen),
		cycleRank:  make([]int32, cycleLen),
		perCycle:   make([]int32, len(units)),
		cycles:     cycles,
		totalUnits: total,
	}
	// Smooth weighted round-robin: each position, every shard earns its
	// weight of credit and the richest shard (lowest index on ties) takes
	// the position, paying the full cycle back. Equal weights degenerate
	// to plain round-robin; unequal weights interleave heavy shards
	// smoothly instead of in blocks, so a span's fan-out stays wide.
	credit := make([]int64, len(units))
	rank := make([]int32, len(units))
	for p := range m.cycleShard {
		best := 0
		for s := range credit {
			credit[s] += weights[s]
			if credit[s] > credit[best] {
				best = s
			}
		}
		credit[best] -= cycleLen
		m.cycleShard[p] = int32(best)
		m.cycleRank[p] = rank[best]
		rank[best]++
	}
	for s, w := range weights {
		m.perCycle[s] = int32(w)
	}
	return m, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Shards returns the number of shards.
func (m *Map) Shards() int { return len(m.perCycle) }

// UnitBytes returns the shard-unit size in bytes.
func (m *Map) UnitBytes() int64 { return m.unitBytes }

// Units returns the number of addressable shard-units in the namespace.
func (m *Map) Units() int64 { return m.totalUnits }

// Size returns the namespace size in bytes.
func (m *Map) Size() int64 { return m.totalUnits * m.unitBytes }

// ShardUnits returns the number of addressable shard-units placed on
// shard s (under RoundRobin this can be less than the shard's capacity).
func (m *Map) ShardUnits(s int) int64 { return m.cycles * int64(m.perCycle[s]) }

// Locate translates a shard-unit of the namespace to its shard and
// shard-local unit: one div/mod plus two table lookups, no allocation.
// Like layout.Mapping's raw accessors, it does not revalidate — unit
// must be in [0, Units()).
func (m *Map) Locate(unit int64) (shard int, local int64) {
	cycleLen := int64(len(m.cycleShard))
	cycle, pos := unit/cycleLen, unit%cycleLen
	s := m.cycleShard[pos]
	return int(s), cycle*int64(m.perCycle[s]) + int64(m.cycleRank[pos])
}

// LocateRange walks the byte span [off, off+n) in placement order,
// calling fn once per piece — the span's overlap with one shard-unit —
// with the shard, the shard-local byte offset, the namespace byte
// offset, and the piece length; the Client splits every span through
// it. It allocates nothing itself; the span must lie within [0, Size())
// and fn must not be nil.
func (m *Map) LocateRange(off, n int64, fn func(shard int, local, spanOff int64, n int)) {
	u := m.unitBytes
	g := off / u
	for n > 0 {
		within := off - g*u
		ln := u - within
		if ln > n {
			ln = n
		}
		s, local := m.Locate(g)
		fn(s, local*u+within, off, int(ln))
		off += ln
		n -= ln
		g++
	}
}
