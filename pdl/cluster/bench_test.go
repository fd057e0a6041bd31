package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pdl/cluster"
	"repro/pdl/serve"
)

// BenchmarkClusterLocate is the address-translation hot path: one
// div/mod plus two int32 table lookups per shard-unit.
func BenchmarkClusterLocate(b *testing.B) {
	m, err := cluster.NewMap(1<<16, []int64{1 << 20, 2 << 20, 3 << 20, 2 << 20}, cluster.ByCapacity)
	if err != nil {
		b.Fatal(err)
	}
	units := m.Units()
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		s, local := m.Locate(int64(i) % units)
		sink += int64(s) + local
	}
	_ = sink
}

// benchCluster stripes spans over 3 live in-process shards through the
// full network path. A read span allocates nothing; a write span pays
// one allocation per leg that moves as a wire v2 stream, the server's
// write-stream state.
func benchCluster(b *testing.B, span int64, write bool) {
	const unitBytes = 4096
	tc := startClusterUnit(b, 4096, unitBytes, []int64{64, 64, 64}, cluster.ByCapacity,
		serve.Config{QueueDepth: 64, FlushDelay: -1})
	c := tc.open(b, cluster.Options{})
	size := c.Size()

	p := make([]byte, span)
	rng := rand.New(rand.NewSource(1))
	rng.Read(p)
	if _, err := c.WriteAt(p, 0); err != nil {
		b.Fatal(err)
	}
	// Unit-aligned offsets: whole-unit spans are the designed hot path
	// (pieces coalesce into full-stripe writes server-side).
	offs := make([]int64, 256)
	for i := range offs {
		offs[i] = rng.Int63n((size-span)/unitBytes+1) * unitBytes
	}
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if write {
			_, err = c.WriteAt(p, offs[i%len(offs)])
		} else {
			_, err = c.ReadAt(p, offs[i%len(offs)])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterReadAt(b *testing.B) {
	for _, span := range []int64{4096, 65536} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			benchCluster(b, span, false)
		})
	}
}

func BenchmarkClusterWriteAt(b *testing.B) {
	for _, span := range []int64{4096, 65536} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			benchCluster(b, span, true)
		})
	}
}

// BenchmarkClusterTCP drives pipelined 64 KiB spans from concurrent
// goroutines over the full sharded network path — the cluster-level
// counterpart of BenchmarkServeTCPWrite, exercising the wire-v2
// streaming frames and multi-connection striping end to end.
func BenchmarkClusterTCP(b *testing.B) {
	const (
		unitBytes = 4096
		span      = 65536
		clients   = 16
	)
	tc := startClusterUnit(b, 4096, unitBytes, []int64{64, 64, 64}, cluster.ByCapacity,
		serve.Config{QueueDepth: 64, FlushDelay: -1})
	c := tc.open(b, cluster.Options{})
	size := c.Size()
	slots := (size-span)/unitBytes + 1

	seed := make([]byte, span)
	rand.New(rand.NewSource(1)).Read(seed)
	if _, err := c.WriteAt(seed, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := make([]byte, span)
			rng.Read(p)
			for {
				n := next.Add(1) - 1
				if n >= int64(b.N) {
					return
				}
				off := (n * 17 % slots) * unitBytes
				if _, err := c.WriteAt(p, off); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}
