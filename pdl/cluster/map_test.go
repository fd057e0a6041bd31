package cluster_test

import (
	"testing"

	"repro/pdl/cluster"
)

// TestMapCoverage is the map's core property test: under both policies
// and a spread of capacities, Locate is a bijection from namespace
// shard-units onto per-shard local unit ranges — every shard's local
// units are hit exactly once, in increasing order (the contiguity
// property the client's one-ReadAt-per-shard fan-out relies on).
func TestMapCoverage(t *testing.T) {
	cases := []struct {
		name   string
		units  []int64
		policy cluster.Policy
	}{
		{"equal-rr", []int64{8, 8, 8}, cluster.RoundRobin},
		{"unequal-rr", []int64{8, 5, 9}, cluster.RoundRobin},
		{"single", []int64{7}, cluster.ByCapacity},
		{"equal-cap", []int64{6, 6, 6, 6}, cluster.ByCapacity},
		{"weighted", []int64{4, 8, 12}, cluster.ByCapacity},
		{"coprime", []int64{3, 5, 7}, cluster.ByCapacity},
		{"skewed", []int64{1, 1, 30}, cluster.ByCapacity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := cluster.NewMap(16, tc.units, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			// Expected addressable units per shard.
			want := make([]int64, len(tc.units))
			var total int64
			switch tc.policy {
			case cluster.RoundRobin:
				lo := tc.units[0]
				for _, u := range tc.units {
					lo = min(lo, u)
				}
				for s := range want {
					want[s] = lo
				}
				total = lo * int64(len(tc.units))
			case cluster.ByCapacity:
				for s, u := range tc.units {
					want[s] = u
					total += u
				}
			}
			if m.Units() != total {
				t.Fatalf("Units() = %d, want %d", m.Units(), total)
			}
			if m.Size() != total*16 {
				t.Fatalf("Size() = %d, want %d", m.Size(), total*16)
			}
			for s := range want {
				if got := m.ShardUnits(s); got != want[s] {
					t.Fatalf("ShardUnits(%d) = %d, want %d", s, got, want[s])
				}
			}
			// Bijection + monotonicity: walking the namespace in order,
			// each shard's local units appear as 0,1,2,... exactly once.
			next := make([]int64, len(tc.units))
			for u := int64(0); u < m.Units(); u++ {
				s, local := m.Locate(u)
				if s < 0 || s >= len(tc.units) {
					t.Fatalf("unit %d: shard %d out of range", u, s)
				}
				if local != next[s] {
					t.Fatalf("unit %d: shard %d local %d, want %d (not contiguous)", u, s, local, next[s])
				}
				next[s]++
			}
			for s := range next {
				if next[s] != want[s] {
					t.Fatalf("shard %d covered %d locals, want %d", s, next[s], want[s])
				}
			}
		})
	}
}

// TestMapRoundRobinOrder pins the equal-weight degenerate case: plain
// round-robin in shard order, so placement is obvious and stable.
func TestMapRoundRobinOrder(t *testing.T) {
	m, err := cluster.NewMap(4, []int64{5, 5, 5}, cluster.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for u := int64(0); u < m.Units(); u++ {
		s, local := m.Locate(u)
		if s != int(u%3) || local != u/3 {
			t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", u, s, local, u%3, u/3)
		}
	}
}

// TestMapInterleaving checks smooth weighting: with weights 1:3, the
// heavy shard never takes a whole cycle in one block (the light shard
// appears within every window of 4).
func TestMapInterleaving(t *testing.T) {
	m, err := cluster.NewMap(4, []int64{2, 6}, cluster.ByCapacity)
	if err != nil {
		t.Fatal(err)
	}
	window := 0
	for u := int64(0); u < m.Units(); u++ {
		s, _ := m.Locate(u)
		if s == 0 {
			window = 0
		} else if window++; window >= 4 {
			t.Fatalf("shard 1 took %d consecutive units at %d: not interleaved", window, u)
		}
	}
}

// TestLocateRange checks the piece decomposition: pieces tile the span
// exactly, never cross a shard-unit boundary, and agree with Locate; and
// the pieces one span places on one shard are contiguous in that shard's
// local space — the property that lets the client stage each shard's
// part of a span as one [lo, hi) extent. Both policies, unequal
// capacities, and spans longer than one cycle.
func TestLocateRange(t *testing.T) {
	const unit = 16
	maps := []struct {
		name   string
		units  []int64
		policy cluster.Policy
	}{
		{"weighted", []int64{4, 8, 12}, cluster.ByCapacity},
		{"coprime-weights", []int64{6, 10, 14}, cluster.ByCapacity},
		{"unequal-rr", []int64{8, 5, 9}, cluster.RoundRobin},
	}
	for _, mc := range maps {
		t.Run(mc.name, func(t *testing.T) {
			m, err := cluster.NewMap(unit, mc.units, mc.policy)
			if err != nil {
				t.Fatal(err)
			}
			// Every map here holds two or more cycles, so half the
			// namespace spans at least one whole cycle.
			half := m.Size() / 2
			spans := []struct{ off, n int64 }{
				{0, m.Size()},
				{0, 1},
				{unit - 1, 2},
				{unit, unit},
				{3, 5 * unit},
				{m.Size() - 1, 1},
				{7, m.Size() - 7},
				{unit / 2, half + unit},
			}
			for _, sp := range spans {
				off := sp.off
				left := sp.n
				end := make(map[int]int64) // shard -> local end of its last piece
				m.LocateRange(sp.off, sp.n, func(shard int, local, spanOff int64, n int) {
					if spanOff != off {
						t.Fatalf("span [%d,%d): piece at %d, want %d (not tiling)", sp.off, sp.off+sp.n, spanOff, off)
					}
					if n < 1 || int64(n) > unit {
						t.Fatalf("piece length %d outside (0,%d]", n, unit)
					}
					if spanOff/unit != (spanOff+int64(n)-1)/unit {
						t.Fatalf("piece [%d,%d) crosses a shard-unit boundary", spanOff, spanOff+int64(n))
					}
					ws, wl := m.Locate(spanOff / unit)
					if shard != ws || local != wl*unit+spanOff%unit {
						t.Fatalf("piece at %d: (%d,%d), Locate says (%d,%d)", spanOff, shard, local, ws, wl*unit+spanOff%unit)
					}
					if e, seen := end[shard]; seen && local != e {
						t.Fatalf("span [%d,%d): shard %d piece at local %d, want %d (not contiguous)", sp.off, sp.off+sp.n, shard, local, e)
					}
					end[shard] = local + int64(n)
					off += int64(n)
					left -= int64(n)
				})
				if left != 0 {
					t.Fatalf("span [%d,%d): %d bytes not covered", sp.off, sp.off+sp.n, left)
				}
			}
		})
	}
}

// TestNewMapValidation rejects hostile or nonsensical geometry.
func TestNewMapValidation(t *testing.T) {
	cases := []struct {
		name      string
		unitBytes int64
		units     []int64
		policy    cluster.Policy
	}{
		{"zero-unit", 0, []int64{4}, cluster.ByCapacity},
		{"no-shards", 16, nil, cluster.ByCapacity},
		{"zero-capacity", 16, []int64{4, 0}, cluster.ByCapacity},
		{"negative-capacity", 16, []int64{-1}, cluster.ByCapacity},
		{"bad-policy", 16, []int64{4}, cluster.Policy("hash-ring")},
		{"coprime-blowup", 16, []int64{1 << 21, 1<<21 + 1}, cluster.ByCapacity},
		{"byte-overflow", 1 << 30, []int64{1 << 33}, cluster.ByCapacity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cluster.NewMap(tc.unitBytes, tc.units, tc.policy); err == nil {
				t.Fatalf("NewMap(%d, %v, %q) accepted", tc.unitBytes, tc.units, tc.policy)
			}
		})
	}
}
