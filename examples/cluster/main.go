// Cluster: one byte namespace striped across several pdlserve arrays —
// the paper's declustering idea applied one level up, where each shard
// is its own parity-protected failure domain. Three in-process shards
// come up behind real TCP servers; a cluster.Manifest places
// capacity-weighted shard-units over them; the cluster client splits
// spans by shard and fans them out concurrently. One shard loses a disk
// and the namespace keeps serving — only that shard pays the degraded
// cost — then rebuilds online, and a final sweep proves the bytes.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/serve"
	"repro/pdl/store"
)

func main() {
	// Three shards: each a parity-declustered MemDisk array behind a
	// batching frontend and a TCP server on a loopback port.
	const (
		shards    = 3
		storeUnit = 64  // array stripe unit
		unitBytes = 128 // cluster shard-unit: 2 array units
	)
	man := &cluster.Manifest{
		Version:   cluster.FormatVersion,
		UnitBytes: unitBytes,
		Policy:    cluster.ByCapacity,
	}
	stores := make([]*store.Store, shards)
	for i := 0; i < shards; i++ {
		res, err := pdl.Build(13, 4)
		if err != nil {
			log.Fatal(err)
		}
		s, err := store.Open(res, res.Layout.Size, storeUnit, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		stores[i] = s
		front := serve.New(s, serve.Config{QueueDepth: 32})
		defer front.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := serve.NewServer(front)
		go srv.Serve(ln)
		defer srv.Close()
		// Give the shards unequal capacities so placement is weighted:
		// 1x, 2x, 3x of the base.
		units := int64(i+1) * 32
		man.Shards = append(man.Shards, cluster.ShardInfo{
			Addr:  ln.Addr().String(),
			Units: units,
			State: cluster.ShardHealthy,
		})
	}

	// Open validates the manifest against each live shard's geometry and
	// connects; the shard map places shard-units proportionally (1:2:3).
	c, err := cluster.Open(man, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	m := c.Map()
	fmt.Printf("cluster: %d shards, %d units of %d B (%d B namespace)\n",
		m.Shards(), m.Units(), m.UnitBytes(), m.Size())
	fmt.Printf("placement: %d + %d + %d units (capacity-weighted)\n",
		m.ShardUnits(0), m.ShardUnits(1), m.ShardUnits(2))

	// Fill the namespace through the client: every span splits by shard
	// and lands as one contiguous read/write per shard, concurrently.
	mirror := make([]byte, m.Size())
	for i := range mirror {
		mirror[i] = byte(i*13 + 5)
	}
	msg := []byte("one namespace, many declustered arrays")
	copy(mirror[100:], msg) // deliberately unaligned: crosses shard-units
	if _, err := c.WriteAt(mirror, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d B across %d shards\n", len(mirror), m.Shards())

	got := make([]byte, len(msg))
	if _, err := c.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q\n", got)

	// Shard 1 loses a disk. The cluster keeps serving every byte: shard
	// 1 reconstructs its units from survivor XOR; shards 0 and 2 are
	// separate failure domains and don't even notice.
	if err := stores[1].Fail(4); err != nil {
		log.Fatal(err)
	}
	if _, err := c.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 disk 4 failed; degraded read: %q\n", got)
	states := func() (out []string) {
		for _, st := range c.Stats() {
			out = append(out, string(st.State))
		}
		return
	}
	fmt.Printf("shard states: %v\n", states())

	// Online rebuild on the failed shard, closing the backend it
	// displaces, then a full byte-exact sweep.
	old := stores[1].DiskBackend(4)
	if err := stores[1].Rebuild(store.NewMemDisk(int64(stores[1].Mapper().DiskUnits()) * storeUnit)); err != nil {
		log.Fatal(err)
	}
	if err := old.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 rebuilt online; shard states: %v\n", states())
	sweep := make([]byte, m.Size())
	if _, err := c.ReadAt(sweep, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("namespace sweep matches: %v\n", bytes.Equal(sweep, mirror))
	for i, s := range stores {
		if err := s.VerifyParity(); err != nil {
			log.Fatalf("shard %d: %v", i, err)
		}
	}
	fmt.Printf("parity verified on all %d shards\n", shards)
}
