//go:build !race

// The allocs regression gate (CI) for the cluster client: the span
// machinery — locate, stage (per-shard extents, staging buffers and the
// write copy-in) and settle (the confirmed prefix and the read copy-out),
// both walking the span through Map.LocateRange — runs at zero
// allocations per span in steady state, in both directions. A full
// networked span starts its legs on the caller's goroutine and recycles
// the serve client's span and call state, so it allocates nothing
// either, apart from the shard server's one write-stream state per
// WriteAt leg:
// TestClusterSpanAllocs (allocs_net_test.go) gates it over live shards,
// and BenchmarkClusterReadAt/BenchmarkClusterWriteAt report it.
// Excluded under -race: sync.Pool randomly drops items under the race
// detector.

package cluster

import (
	"testing"
)

func TestSpanHotPathAllocs(t *testing.T) {
	const unitBytes = 4096
	c := testFanClient(t, unitBytes, []int64{64, 128, 192}, ByCapacity)
	m := c.m

	if n := testing.AllocsPerRun(500, func() {
		m.Locate(137)
	}); n != 0 {
		t.Errorf("Locate allocates %v/op, want 0", n)
	}

	// An unaligned span over several shard-units, warm pool and staging:
	// a write's stage and settle, then a read's.
	p := make([]byte, 3*unitBytes)
	off := int64(unitBytes/2 + 3)
	roundTrip := func() {
		fo := c.getFan()
		c.stage(fo, off, int64(len(p)), p)
		if _, err := c.settle(fo, off, int64(len(p)), nil); err != nil {
			t.Fatal(err)
		}
		c.putFan(fo)
		fo = c.getFan()
		c.stage(fo, off, int64(len(p)), nil)
		if _, err := c.settle(fo, off, int64(len(p)), p); err != nil {
			t.Fatal(err)
		}
		c.putFan(fo)
	}
	roundTrip()
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
		t.Errorf("span stage/settle (write and read) allocates %v/op, want 0", n)
	}
}
