// Command pdlserve runs and drives the pdl/serve network front end: a
// TCP server batching client requests into parity-declustered array I/O,
// and a loadgen mode driving a seeded workload (or a recorded trace)
// over the wire on the pdl/scenario engine.
//
// Usage:
//
//	pdlserve serve -addr :9911 -v 17 -k 4 -copies 4 -unit 4096
//	pdlserve serve -addr :9911 -dir a17 -backend mmap   # durable array
//	pdlserve loadgen -clients 64 -duration 2s -write-frac 1   # self-hosted server
//	pdlserve loadgen -addr host:9911 -workload zipf -theta 0.9 -ops 200000
//	pdlserve loadgen -fail 3                       # fail disk 3, run degraded
//	pdlserve loadgen -record ops.trace             # capture the request stream
//	pdlserve loadgen -replay ops.trace -speed 2    # replay it at 2x
//	pdlserve scenario -f sched.json                # scripted fault schedule
//
// loadgen is a one-phase scenario built from its flags (see
// cmd/internal/loadgen; pdlstore and pdlcluster take the same ones);
// scenario runs a versioned JSON fault schedule (see pdl/scenario)
// against the server: phased workloads with scripted disk failures and
// rebuilds, per-phase latency windows, and SLO judgment. Either exits
// nonzero on an op error or a violated SLO. What they print is a smoke
// check; quotable numbers come from the repository benchmark (bash
// bench/run.sh).
//
// With -dir, serve opens an existing pdlstore array directory (see
// pdl/store/array) instead of a throwaway MemDisk array: bytes, disk
// failures, and rebuilds all survive a server restart, because wire Fail
// and Rebuild requests route through the array's manifest.
//
// All rates are decimal MB/s (1 MB = 1e6 bytes), matching `go test
// -bench` and the repository benchmark.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/cmd/internal/loadgen"
	"repro/cmd/internal/selfhost"
	"repro/cmd/internal/units"
	"repro/pdl/code"
	"repro/pdl/obs"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/sim"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

func main() {
	if len(os.Args) < 2 {
		die(fmt.Errorf("usage: pdlserve <serve|loadgen|scenario> [flags]"))
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "scenario":
		err = cmdScenario(args)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "pdlserve:", err)
	os.Exit(1)
}

// addArrayFlags registers the array flag set shared by serve and the
// self-hosted loadgen/scenario modes.
func addArrayFlags(fs *flag.FlagSet) *selfhost.Flags {
	a := selfhost.AddFlags(fs, "unit")
	fs.IntVar(&a.Config.Workers, "workers", 0, "executor goroutines (0 = GOMAXPROCS)")
	return a
}

func degradedTag(s *store.Store) string {
	if fd := s.FailedDisks(); len(fd) > 1 {
		return fmt.Sprintf(" (degraded: disks %v down)", fd)
	} else if len(fd) == 1 {
		return fmt.Sprintf(" (degraded: disk %d down)", fd[0])
	}
	return ""
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":9911", "listen address")
	dir := fs.String("dir", "", "existing array directory to serve (empty: throwaway MemDisk array)")
	backend := fs.String("backend", string(array.File), "per-disk backend for -dir: file|mmap")
	noDelay := fs.Bool("nodelay", true, "set TCP_NODELAY on accepted connections")
	rcvbuf := fs.Int("rcvbuf", 0, "kernel receive buffer per connection in bytes (0 = OS default)")
	sndbuf := fs.Int("sndbuf", 0, "kernel send buffer per connection in bytes (0 = OS default)")
	httpAddr := fs.String("http", "", "admin HTTP listen address for /metrics, /statusz, /healthz, /debug/pprof (empty: disabled)")
	a := addArrayFlags(fs)
	fs.Parse(args)

	var front *serve.Frontend
	var arr *array.Array
	if *dir != "" {
		kind, err := array.ParseBackend(*backend)
		if err != nil {
			return err
		}
		arr, err = array.Open(*dir, array.WithBackend(kind))
		if err != nil {
			return err
		}
		s := arr.Store()
		m := arr.Manifest()
		fmt.Printf("array %s: %s v=%d k=%d, %d units of %d B (%.1f MB logical, %s backend)%s\n",
			*dir, m.Method, m.V, m.K, s.Capacity(), m.UnitSize, float64(s.Size())/units.BytesPerMB, kind, degradedTag(s))
		front = serve.New(s, a.Config)
	} else {
		var err error
		if front, err = a.Frontend(); err != nil {
			return err
		}
	}
	defer front.Store().Close()
	defer front.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewServer(front)
	srv.NoDelay = *noDelay
	srv.ReadBuffer = *rcvbuf
	srv.WriteBuffer = *sndbuf
	if arr != nil {
		// Durable array: wire Fail/Rebuild go through the manifest so
		// degraded and rebuilt states survive a server restart.
		srv.FailDisk = arr.Fail
		srv.RebuildDisk = func() error { _, err := arr.Rebuild(); return err }
	}
	if *httpAddr != "" {
		hln, err := serveAdmin(*httpAddr, front, srv)
		if err != nil {
			return err
		}
		defer hln.Close()
		fmt.Printf("admin http on %s\n", hln.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Println("\nshutting down")
		srv.Close()
	}()
	fmt.Printf("serving on %s (queue depth %d, flush %v)\n", ln.Addr(), a.Config.QueueDepth, a.Config.FlushDelay)
	return srv.Serve(ln)
}

// serveAdmin starts the obs admin endpoint: every layer's metrics in one
// registry, array state as a /statusz section.
func serveAdmin(addr string, front *serve.Frontend, srv *serve.Server) (net.Listener, error) {
	reg := obs.NewRegistry()
	front.Store().RegisterMetrics(reg)
	front.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	h := obs.NewHandler(reg)
	h.AddStatus("array", func() any {
		s := front.Store()
		st := s.Stats()
		return map[string]any{
			"unit_size":       s.UnitSize(),
			"capacity":        s.Capacity(),
			"size_bytes":      s.Size(),
			"codec":           s.Code().Name(),
			"kernel":          code.Kernel(),
			"parity_shards":   s.Code().ParityShards(),
			"failed_disks":    append([]int{}, st.FailedDisks...), // [] when healthy, not null
			"rebuilding":      st.Rebuilding,
			"rebuilt_stripes": st.RebuiltStripes,
			"rebuild_workers": st.RebuildWorkers,
			"total_stripes":   st.TotalStripes,
		}
	})
	h.AddStatus("frontend", func() any { return front.Stats() })
	hln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(hln, h)
	return hln, nil
}

// dialOrSelfHost connects to addr, or (addr empty) hosts an in-process
// server on a loopback socket so loadgen/scenario still drive real TCP.
// conns is the per-endpoint connection count (0 = CPU-aware default).
// The returned Frontend is non-nil only when self-hosting — it is what
// loadgen -record hooks its trace writer into.
func dialOrSelfHost(addr string, a *selfhost.Flags, conns int) (*serve.Client, *serve.Frontend, func(), error) {
	cleanup := func() {}
	var front *serve.Frontend
	if addr == "" {
		var err error
		if front, addr, cleanup, err = a.Serve(); err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("self-hosted server on %s\n", addr)
	}
	var opts []serve.Option
	if conns > 0 {
		opts = append(opts, serve.WithConns(conns))
	}
	c, err := serve.Dial(addr, opts...)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	fmt.Printf("connected: %d disks, %d units of %d B\n", c.Disks(), c.Capacity(), c.UnitSize())
	return c, front, func() { c.Close(); cleanup() }, nil
}

// cmdLoadgen drives one seeded workload — or, with -replay, a recorded
// trace — through the server on the scenario engine; flags and output
// are those of cmd/internal/loadgen, shared with pdlstore and pdlcluster.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-hosted)")
	failDisk := fs.Int("fail", -1, "fail this disk as the load starts and run degraded")
	conns := fs.Int("conns", 0, "TCP connections to the server (0 = CPU-aware default)")
	record := fs.String("record", "", "record the server's request stream to this trace file (self-hosted only)")
	replay := fs.String("replay", "", "replay a recorded trace file instead of generating a workload")
	speed := fs.Float64("speed", 0, "replay speed multiplier (1 = recorded timing, 2 = twice as fast, 0 = flat out)")
	lf := loadgen.AddFlags(fs)
	a := addArrayFlags(fs)
	fs.Parse(args)
	c, front, cleanup, err := dialOrSelfHost(*addr, a, *conns)
	if err != nil {
		return err
	}
	defer cleanup()
	tgt := &scenario.ClientTarget{C: c}
	if *replay != "" {
		return runReplay(tgt, *replay, *speed)
	}

	sc, err := lf.Scenario(lf.FailEvents(0, *failDisk, 0)...)
	if err != nil {
		return err
	}
	var trace bytes.Buffer
	var tw *sim.TraceWriter
	if *record != "" {
		if front == nil {
			return fmt.Errorf("loadgen: -record needs a self-hosted server (drop -addr)")
		}
		if tw, err = sim.NewTraceWriter(&trace, c.UnitSize()); err != nil {
			return err
		}
		front.RecordTrace(tw)
	}
	if err := loadgen.Run(sc, tgt); err != nil || tw == nil {
		return err
	}
	front.RecordTrace(nil)
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := os.WriteFile(*record, trace.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d ops to %s\n", tw.Ops(), *record)
	return nil
}

// runReplay replays a recorded trace file against the connected server
// and reports the latency it measured, split by recorded op class.
func runReplay(tgt scenario.Target, path string, speed float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := sim.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if tr.UnitSize != tgt.UnitSize() {
		fmt.Printf("note: trace unit %d B, server unit %d B — replay wraps addresses, latency is not a faithful reproduction\n",
			tr.UnitSize, tgt.UnitSize())
	}
	fmt.Printf("replaying %d traced ops (%v recorded) at speed %g (0 = flat out)\n", len(tr.Ops), tr.Duration().Round(time.Millisecond), speed)
	rep, err := scenario.ReplayTrace(tgt, tr, speed)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	return nil
}

// cmdScenario runs a versioned JSON fault schedule against a server —
// remote via -addr, or a self-hosted loopback endpoint — and exits
// nonzero when a declared SLO is violated or verify mode catches a
// data mismatch.
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-hosted)")
	conns := fs.Int("conns", 0, "TCP connections to the server (0 = CPU-aware default)")
	schedule := loadgen.ScheduleFlags(fs)
	a := addArrayFlags(fs)
	fs.Parse(args)
	sc, err := schedule()
	if err != nil {
		return err
	}
	c, _, cleanup, err := dialOrSelfHost(*addr, a, *conns)
	if err != nil {
		return err
	}
	defer cleanup()
	return loadgen.Run(sc, &scenario.ClientTarget{C: c})
}
