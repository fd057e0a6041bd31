package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/pdl/cluster"
	"repro/pdl/serve"
)

// TestClusterProperty is the client's core correctness test: random
// reads and writes at arbitrary (unaligned) offsets and lengths against
// a live multi-shard cluster must behave exactly like the same
// operations against one flat byte slice. Run under both policies.
func TestClusterProperty(t *testing.T) {
	for _, policy := range []cluster.Policy{cluster.ByCapacity, cluster.RoundRobin} {
		t.Run(string(policy), func(t *testing.T) {
			const unitBytes = 64 // 2 array units per shard-unit
			tc := startCluster(t, unitBytes, []int64{8, 12, 16}, policy, serve.Config{QueueDepth: 16, FlushDelay: -1})
			c := tc.open(t, cluster.Options{})

			if c.Shards() != 3 {
				t.Fatalf("Shards() = %d, want 3", c.Shards())
			}
			size := c.Size()
			if want := c.Map().Units() * unitBytes; size != want {
				t.Fatalf("Size() = %d, want %d", size, want)
			}

			mirror := make([]byte, size)
			rng := rand.New(rand.NewSource(int64(len(policy)) * 41))
			buf := make([]byte, 5*unitBytes)
			for op := 0; op < 400; op++ {
				off := rng.Int63n(size)
				n := 1 + rng.Int63n(int64(len(buf)))
				if off+n > size {
					n = size - off
				}
				p := buf[:n]
				if rng.Intn(2) == 0 {
					rng.Read(p)
					if wn, err := c.WriteAt(p, off); err != nil || wn != len(p) {
						t.Fatalf("op %d: WriteAt(%d B @ %d) = %d, %v", op, n, off, wn, err)
					}
					copy(mirror[off:], p)
				} else {
					if rn, err := c.ReadAt(p, off); err != nil || rn != len(p) {
						t.Fatalf("op %d: ReadAt(%d B @ %d) = %d, %v", op, n, off, rn, err)
					}
					if !bytes.Equal(p, mirror[off:off+n]) {
						t.Fatalf("op %d: read [%d,%d) diverges from mirror", op, off, off+n)
					}
				}
			}

			// Full-namespace sweep, bit-exact against the mirror.
			all := make([]byte, size)
			if n, err := c.ReadAt(all, 0); err != nil || int64(n) != size {
				t.Fatalf("sweep: %d, %v", n, err)
			}
			if !bytes.Equal(all, mirror) {
				t.Fatal("namespace diverges from mirror after random traffic")
			}

			// Every shard's array still satisfies parity.
			for s, ts := range tc.shards {
				if err := ts.store.VerifyParity(); err != nil {
					t.Fatalf("shard %d parity: %v", s, err)
				}
			}
		})
	}
}

// TestClusterBounds pins edge semantics: EOF-prefix reads, rejected
// writes past the end, negative offsets, and empty spans.
func TestClusterBounds(t *testing.T) {
	const unitBytes = 64
	tc := startCluster(t, unitBytes, []int64{4, 4}, cluster.ByCapacity, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{})
	size := c.Size()

	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	if _, err := c.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}

	// Read crossing the end returns the available prefix and io.EOF.
	p := make([]byte, 100)
	n, err := c.ReadAt(p, size-10)
	if n != 10 || err != io.EOF {
		t.Fatalf("tail read = %d, %v; want 10, EOF", n, err)
	}
	if !bytes.Equal(p[:10], pattern[size-10:]) {
		t.Fatal("tail read bytes diverge")
	}
	// At or past the end: immediate EOF.
	if n, err := c.ReadAt(p, size); n != 0 || err != io.EOF {
		t.Fatalf("read at end = %d, %v; want 0, EOF", n, err)
	}
	// Negative offsets are errors, not EOF.
	if _, err := c.ReadAt(p, -1); err == nil || err == io.EOF {
		t.Fatalf("negative read offset: %v", err)
	}
	// Writes never extend the namespace.
	if _, err := c.WriteAt(p, size-10); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := c.WriteAt(p, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	// An end past MaxInt64 must not wrap the bounds check: the client
	// refuses the write itself and starts no shard leg.
	before := c.Stats()
	if n, err := c.WriteAt(p, math.MaxInt64-int64(len(p)/2)); n != 0 || err == nil || !strings.HasPrefix(err.Error(), "cluster: WriteAt:") {
		t.Fatalf("write at MaxInt64-%d = %d, %v; want the client's range error", len(p)/2, n, err)
	}
	for s, st := range c.Stats() {
		b := before[s]
		if st.Ops != b.Ops || st.Failures != b.Failures || st.Retries != b.Retries || st.Reconnects != b.Reconnects {
			t.Fatalf("shard %d counted ops for a refused write: before %+v, after %+v", s, b, st)
		}
	}
	// Empty spans are cheap no-ops.
	if n, err := c.ReadAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty read = %d, %v", n, err)
	}
	if n, err := c.WriteAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

// TestOpenValidation: Open refuses geometry the live shards cannot
// serve, identifying the offending shard.
func TestOpenValidation(t *testing.T) {
	tc := startCluster(t, 64, []int64{4, 4}, cluster.ByCapacity, serve.Config{FlushDelay: -1})

	// Shard-unit not a multiple of the array's stripe unit.
	man := tc.man.Clone()
	man.UnitBytes = shardStoreUnit + 8
	var se *cluster.ShardError
	if _, err := cluster.Open(man, cluster.Options{}); !errors.As(err, &se) {
		t.Fatalf("misaligned unit: %v, want ShardError", err)
	}

	// Manifest placing more bytes than the shard's array holds (rounded
	// to shard 0's 4 units so the map itself still builds).
	man = tc.man.Clone()
	over := tc.shards[1].store.Size()/man.UnitBytes + 1
	man.Shards[1].Units = (over + 3) / 4 * 4
	se = nil
	if _, err := cluster.Open(man, cluster.Options{}); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("oversized placement: %v, want ShardError on shard 1", err)
	}

	// An unreachable shard fails Open (strict connect), naming the shard.
	man = tc.man.Clone()
	man.Shards[0].Addr = "127.0.0.1:1"
	se = nil
	if _, err := cluster.Open(man, cluster.Options{DialTimeout: 500 * time.Millisecond}); !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("unreachable shard: %v, want ShardError on shard 0", err)
	}
}

// TestClusterStats: per-shard stats reflect traffic and live server
// state, including a degraded shard.
func TestClusterStats(t *testing.T) {
	tc := startCluster(t, 64, []int64{6, 6, 6}, cluster.RoundRobin, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{})

	p := make([]byte, c.Size())
	if _, err := c.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	// Each whole-namespace span ran exactly one leg on every shard.
	for s, ss := range c.Stats() {
		if ss.Ops != 2 || ss.Failures != 0 || ss.Retries != 0 {
			t.Errorf("shard %d after one WriteAt and one ReadAt: ops %d failures %d retries %d, want 2, 0, 0",
				s, ss.Ops, ss.Failures, ss.Retries)
		}
	}

	if err := tc.shards[1].store.Fail(2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if len(st) != 3 {
		t.Fatalf("%d shard stats, want 3", len(st))
	}
	for s, ss := range st {
		if ss.Addr != tc.shards[s].addr {
			t.Errorf("shard %d addr %q, want %q", s, ss.Addr, tc.shards[s].addr)
		}
		if ss.Ops == 0 || ss.P50 == 0 || ss.Mean == 0 {
			t.Errorf("shard %d: no traffic recorded: %+v", s, ss)
		}
		want := cluster.ShardHealthy
		if s == 1 {
			want = cluster.ShardDegraded
		}
		if ss.State != want {
			t.Errorf("shard %d state %q, want %q", s, ss.State, want)
		}
		if ss.Server.Frontend.Submitted == 0 {
			t.Errorf("shard %d: server counters empty", s)
		}
	}

	// A degraded shard still serves: reads reconstruct through parity.
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
}

// TestClusterDisjointWriters has two cluster clients write adjacent
// byte ranges concurrently, round after round — each range unaligned to
// the shards' 32-byte array unit, the second crossing from shard 0 into
// shard 1 — then reads both back: neither write may undo the other.
// Their pieces share array units on shard 0, so a server or client that
// patched a partial unit by reading it, patching and writing it back
// would lose one client's bytes whenever the two interleave.
func TestClusterDisjointWriters(t *testing.T) {
	const unitBytes, rounds = 64, 1000
	tc := startCluster(t, unitBytes, []int64{8, 8}, cluster.RoundRobin, serve.Config{FlushDelay: -1})
	var clients [2]*cluster.Client
	for i := range clients {
		clients[i] = tc.open(t, cluster.Options{Conns: 1})
	}
	// Namespace [16, 48) lies in shard 0's first two array units; [48, 80)
	// ends shard 0's second array unit and starts shard 1's first.
	ranges := [2][2]int64{{16, 48}, {48, 80}}
	lost := 0
	got := make([]byte, 64)
	for r := 0; r < rounds; r++ {
		var parts [2][]byte
		errs := make(chan error, 2)
		for i, c := range clients {
			parts[i] = make([]byte, ranges[i][1]-ranges[i][0])
			for j := range parts[i] {
				parts[i][j] = byte(2*r + i + j*7)
			}
			go func(c *cluster.Client, p []byte, off int64) {
				_, err := c.WriteAt(p, off)
				errs <- err
			}(c, parts[i], ranges[i][0])
		}
		for range clients {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if _, err := clients[0].ReadAt(got, 16); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:32], parts[0]) || !bytes.Equal(got[32:], parts[1]) {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d rounds lost one client's bytes", lost, rounds)
	}
}
