//go:build !race

// The allocs regression gate (CI) for the cluster client: the span
// machinery — locate, per-shard extent planning, staging, gather,
// scatter, and the confirmed-prefix accounting — runs at zero
// allocations per span in steady state. A full networked span starts
// its legs on the caller's goroutine and recycles the serve client's
// span and call state, so it allocates nothing either, apart from the
// shard server's one write-stream state per WriteAt leg:
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

	// An unaligned span over several shard-units, warm pool and staging.
	p := make([]byte, 3*unitBytes)
	off := int64(unitBytes/2 + 3)
	roundTrip := func() {
		fo := c.getFan()
		c.plan(fo, off, int64(len(p)))
		c.stage(fo)
		c.gather(fo, p, off)
		c.scatter(fo, p, off)
		if _, err := c.confirmed(fo, off, int64(len(p))); err != nil {
			t.Fatal(err)
		}
		c.putFan(fo)
	}
	roundTrip()
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
		t.Errorf("span plan/stage/gather/scatter/confirm allocates %v/op, want 0", n)
	}
}
