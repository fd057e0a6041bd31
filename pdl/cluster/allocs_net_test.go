//go:build !race

// The networked row of the cluster allocs gate (allocs_test.go gates the
// span machinery alone): a whole span over live shards. Excluded under
// -race: sync.Pool randomly drops items under the race detector.

package cluster_test

import (
	"testing"

	"repro/pdl/cluster"
	"repro/pdl/serve"
)

// TestClusterSpanAllocs gates a full networked span, counted across
// every goroutine of the client and of the shard servers: an aligned
// ReadAt or WriteAt touching two shards allocates nothing. Every leg
// starts on the caller's goroutine, each server serves read streams
// from its connections' span workers and keeps its write streams
// pooled, so no span spawns a goroutine or builds per-stream state.
func TestClusterSpanAllocs(t *testing.T) {
	const unitBytes = 4096
	tc := startCluster(t, unitBytes, []int64{64, 64, 64}, cluster.RoundRobin, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{})

	// Round-robin places shard-unit g on shard g%3, so a two-unit span
	// at an even unit touches two shards.
	p := make([]byte, 2*unitBytes)
	spans := c.Size() / int64(len(p))
	i := int64(0)
	next := func() int64 {
		i++
		return i % spans * int64(len(p))
	}
	for w := 0; w < 256; w++ {
		off := next()
		if _, err := c.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(400, func() {
		if _, err := c.ReadAt(p, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("networked ReadAt over 2 shards allocates %v/span, want 0", n)
	}
	if n := testing.AllocsPerRun(400, func() {
		if _, err := c.WriteAt(p, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("networked WriteAt over 2 shards allocates %v/span, want 0", n)
	}
}
