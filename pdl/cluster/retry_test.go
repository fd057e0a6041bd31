package cluster_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/pdl/cluster"
	"repro/pdl/serve"
)

// TestShardReconnect: a shard server dies and comes back on the same
// port (a restarted pdlserve); in-budget operations ride the per-shard
// retry/reconnect path transparently, and Stats records the reconnect.
func TestShardReconnect(t *testing.T) {
	const unitBytes = 64
	tc := startCluster(t, unitBytes, []int64{6, 6}, cluster.ByCapacity, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{
		DialTimeout:  2 * time.Second,
		Retries:      6,
		RetryBackoff: 10 * time.Millisecond,
	})

	pattern := make([]byte, c.Size())
	for i := range pattern {
		pattern[i] = byte(i*11 + 5)
	}
	if _, err := c.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}

	// Kill shard 1's server; its store (and bytes) survive. Revive it
	// shortly after — within the read's retry budget.
	tc.shards[1].stopServer()
	go func() {
		time.Sleep(50 * time.Millisecond)
		tc.shards[1].restartServer()
	}()

	got := make([]byte, c.Size())
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatalf("read across restart: %v", err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatal("bytes diverge after shard restart")
	}

	st := c.Stats()
	if st[1].Retries == 0 || st[1].Reconnects == 0 {
		t.Fatalf("shard 1 stats show no retry/reconnect: %+v", st[1])
	}
	if st[0].Retries != 0 {
		t.Fatalf("healthy shard 0 retried: %+v", st[0])
	}
}

// TestShardDownExhaustsBudget: with a shard gone for good, the retry
// budget runs out and the failure surfaces as a ShardError naming the
// shard, with the confirmed-prefix count for the span. Healthy shards
// keep serving their own pieces.
func TestShardDownExhaustsBudget(t *testing.T) {
	const unitBytes = 64
	tc := startCluster(t, unitBytes, []int64{6, 6}, cluster.ByCapacity, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{
		DialTimeout:  200 * time.Millisecond,
		Retries:      1,
		RetryBackoff: 5 * time.Millisecond,
	})

	pattern := make([]byte, c.Size())
	for i := range pattern {
		pattern[i] = byte(i*3 + 1)
	}
	if _, err := c.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}
	tc.shards[1].stopServer()

	// A namespace-wide read fails on shard 1 but confirms the contiguous
	// prefix before its first piece: under capacity policy with equal
	// weights the cycle is [0 1], so exactly the first shard-unit.
	const sentinel = 0xEE
	got := bytes.Repeat([]byte{sentinel}, int(c.Size()))
	n, err := c.ReadAt(got, 0)
	var se *cluster.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("read with dead shard: %d, %v; want ShardError on shard 1", n, err)
	}
	if n != unitBytes {
		t.Fatalf("confirmed prefix %d, want %d", n, unitBytes)
	}
	if !bytes.Equal(got[:n], pattern[:n]) {
		t.Fatal("confirmed prefix bytes diverge")
	}
	// Past the failure, every piece of the healthy leg still lands and
	// every piece of the failed leg is left as the caller had it.
	for g := int64(0); g < c.Map().Units(); g++ {
		piece := got[g*unitBytes : (g+1)*unitBytes]
		switch s, _ := c.Map().Locate(g); s {
		case 0:
			if !bytes.Equal(piece, pattern[g*unitBytes:(g+1)*unitBytes]) {
				t.Fatalf("shard-unit %d (healthy shard 0) diverges from what was written", g)
			}
		default:
			if !bytes.Equal(piece, bytes.Repeat([]byte{sentinel}, unitBytes)) {
				t.Fatalf("shard-unit %d (failed shard %d) overwritten", g, s)
			}
		}
	}

	// A span placed entirely on the healthy shard is untouched by the
	// other failure domain: shard 0 owns even shard-units.
	if _, err := c.ReadAt(got[:unitBytes], 2*unitBytes); err != nil {
		t.Fatalf("healthy-shard read: %v", err)
	}
	if !bytes.Equal(got[:unitBytes], pattern[2*unitBytes:3*unitBytes]) {
		t.Fatal("healthy-shard bytes diverge")
	}

	// Stats reports the dead shard down, best-effort, without failing.
	st := c.Stats()
	if st[1].State != cluster.ShardDown {
		t.Fatalf("shard 1 state %q, want down", st[1].State)
	}
	if st[0].State != cluster.ShardHealthy {
		t.Fatalf("shard 0 state %q, want healthy", st[0].State)
	}
}
