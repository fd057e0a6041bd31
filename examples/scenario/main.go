// Scenario: the fault-injection harness end to end. A seeded Zipf burst
// runs through a serve frontend with a trace recorder attached, so the
// request stream itself becomes an artifact. Then a scripted scenario —
// healthy, degraded, rebuild — runs against a three-shard cluster in
// verify mode: the engine fails one shard's disk mid-traffic over the
// admin wire, rebuilds it online, carves a latency window per phase,
// and judges the run against declared SLOs. Finally the recorded trace
// replays against the recovered cluster, and every shard's parity is
// verified.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/sim"
	"repro/pdl/store"
)

func main() {
	const unitSize = 64

	// Record: a trace writer hooks the frontend's submission path, so
	// what lands in the buffer is the admitted request stream — kinds,
	// classes, addresses, inter-arrival gaps — in the versioned binary
	// trace format.
	res, err := pdl.Build(13, 4)
	if err != nil {
		log.Fatal(err)
	}
	src, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		log.Fatal(err)
	}
	front := serve.New(src, serve.Config{FlushDelay: -1})
	var rec bytes.Buffer
	tw, err := sim.NewTraceWriter(&rec, unitSize)
	if err != nil {
		log.Fatal(err)
	}
	front.RecordTrace(tw)
	gen := sim.NewZipf(src.Capacity(), 0.9, 0.3, 41)
	ctx := context.Background()
	buf := make([]byte, unitSize)
	for i := 0; i < 500; i++ {
		op := gen.Next()
		if op.Kind == sim.Write {
			err = front.Write(ctx, op.Logical, buf)
		} else {
			err = front.Read(ctx, op.Logical, buf)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	front.RecordTrace(nil)
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	front.Close()
	src.Close()
	tr, err := sim.DecodeTrace(rec.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d ops at unit %d B\n", len(tr.Ops), tr.UnitSize)

	// A three-shard cluster: each shard a declustered array behind a
	// real TCP server, capacities weighted 1:2:3 (see examples/cluster).
	const (
		shards    = 3
		storeUnit = 64
		unitBytes = 128
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
		man.Shards = append(man.Shards, cluster.ShardInfo{
			Addr:  ln.Addr().String(),
			Units: int64(i+1) * 32,
			State: cluster.ShardHealthy,
		})
	}
	c, err := cluster.Open(man, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// The scenario target moves 192 B per op: a multiple of the 64 B
	// array unit (concurrent workers must not share one — sub-unit
	// writes are read-modify-writes) but unaligned with the 128 B
	// shard-unit, so ops cross shard boundaries.
	tgt := scenario.NewClusterTarget(c, 192)
	defer tgt.Close()
	fmt.Printf("cluster target: %d ops of %d B across %d shards\n", tgt.Capacity(), tgt.Unit, shards)

	// The script: three phases under a seeded workload. Mid-traffic the
	// engine fails disk 4 on shard 1 over the admin wire (the other
	// shards are separate failure domains), then rebuilds it online.
	// Verify mode models every write and checks every read; the empty
	// SLO clause forbids op errors, and require_healthy asserts the
	// rebuild completed.
	load := scenario.Load{Workers: 3, Ops: 300, WriteFrac: 0.4}
	sc := &scenario.Scenario{
		Name:   "example",
		Seed:   7,
		Verify: true,
		Phases: []scenario.Phase{
			{Name: "healthy", Load: load, SLO: &scenario.SLO{}},
			{
				Name:   "degraded",
				Load:   load,
				Events: []scenario.Event{{Action: scenario.ActFail, Shard: 1, Disk: 4, AtOps: 30}},
				SLO:    &scenario.SLO{},
			},
			{
				Name:   "rebuild",
				Load:   load,
				Events: []scenario.Event{{Action: scenario.ActRebuild, Shard: 1, AtOps: 30}},
				SLO:    &scenario.SLO{RequireHealthy: true},
			},
		},
	}
	rep, err := scenario.Run(sc, tgt)
	if err != nil {
		log.Fatal(err)
	}
	for _, ph := range rep.Phases {
		fmt.Printf("phase %-8s ops=%d errs=%d percentiles recorded: %v\n",
			ph.Name, ph.Ops, ph.Errors, ph.Foreground.P99 > 0)
		for _, ev := range ph.Events {
			fmt.Printf("  event %s shard=%d ok=%v\n", ev.Action, ev.Shard, ev.Err == "")
		}
	}
	fmt.Printf("SLO violations: %d (verified: every read checked, all written units swept)\n", len(rep.Violations))

	// Replay the recorded trace against the recovered cluster, flat out
	// (speed <= 0). Addresses wrap modulo the target's capacity, so the
	// single-array trace drives the cluster namespace.
	rr, err := scenario.ReplayTrace(tgt, tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed the trace against the cluster: %d ops, %d errors\n", rr.Phases[0].Ops, rr.Phases[0].Errors)

	for i, s := range stores {
		if err := s.VerifyParity(); err != nil {
			log.Fatalf("shard %d: %v", i, err)
		}
	}
	fmt.Printf("parity verified on all %d shards\n", shards)
}
