// Command pdlserve runs and drives the pdl/serve network front end: a
// TCP server batching client requests into parity-declustered array I/O,
// a throughput benchmark against a live server, and a loadgen mode
// replaying the pdl/sim workload mixes over the wire.
//
// Usage:
//
//	pdlserve serve -addr :9911 -v 17 -k 4 -copies 4 -unit 4096
//	pdlserve serve -addr :9911 -dir a17 -backend mmap   # durable array
//	pdlserve bench -clients 64 -seconds 2          # self-hosted server
//	pdlserve bench -addr host:9911 -clients 64     # remote server
//	pdlserve loadgen -workload zipf -theta 0.9 -write-frac 0.3 -ops 200000
//	pdlserve loadgen -addr host:9911 -workload mix -fail 3
//	pdlserve loadgen -record ops.trace             # capture the request stream
//	pdlserve loadgen -replay ops.trace -speed 2    # replay it at 2x
//	pdlserve scenario -f sched.json                # scripted fault schedule
//
// scenario runs a versioned JSON fault schedule (see pdl/scenario)
// against the server: phased workloads with scripted disk failures and
// rebuilds, per-phase latency windows, and SLO judgment; the process
// exits nonzero when a declared SLO is violated.
//
// With -dir, serve opens an existing pdlstore array directory (see
// pdl/store/array) instead of a throwaway MemDisk array: bytes, disk
// failures, and rebuilds all survive a server restart, because wire Fail
// and Rebuild requests route through the array's manifest.
//
// All rates are decimal MB/s (1 MB = 1e6 bytes), matching `go test
// -bench` and the repository benchmark (go run ./bench).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/units"
	"repro/pdl"
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
		die(fmt.Errorf("usage: pdlserve <serve|bench|loadgen|scenario> [flags]"))
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "bench":
		err = cmdBench(args)
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

// arrayFlags is the geometry flag set shared by serve and the
// self-hosted bench/loadgen modes.
type arrayFlags struct {
	v, k, copies, unit, depth, workers int
	parity                             int
	flush                              time.Duration
}

func addArrayFlags(fs *flag.FlagSet) *arrayFlags {
	a := &arrayFlags{}
	fs.IntVar(&a.v, "v", 17, "number of disks")
	fs.IntVar(&a.k, "k", 4, "parity stripe size")
	fs.IntVar(&a.parity, "parity", 1, "parity shards per stripe (1 = XOR, >1 = Reed-Solomon)")
	fs.IntVar(&a.copies, "copies", 4, "layout copies per disk")
	fs.IntVar(&a.unit, "unit", 4096, "unit size in bytes")
	fs.IntVar(&a.depth, "depth", serve.DefaultQueueDepth, "submission queue depth / max batch size")
	fs.IntVar(&a.workers, "workers", 0, "executor goroutines (0 = GOMAXPROCS)")
	fs.DurationVar(&a.flush, "flush", serve.DefaultFlushDelay, "batch flush deadline (negative = immediate)")
	return a
}

// newFrontend builds a MemDisk-backed array and its batching frontend.
func (a *arrayFlags) newFrontend() (*serve.Frontend, error) {
	var opts []pdl.Option
	if a.parity > 1 {
		opts = append(opts, pdl.WithParityShards(a.parity))
	}
	res, err := pdl.Build(a.v, a.k, opts...)
	if err != nil {
		return nil, err
	}
	s, err := store.Open(res, a.copies*res.Layout.Size, a.unit, nil)
	if err != nil {
		return nil, err
	}
	c := s.Code()
	fmt.Printf("array: %s v=%d k=%d codec=%s/%d, %d units of %d B (%s logical)\n",
		res.Method, a.v, a.k, c.Name(), c.ParityShards(), s.Capacity(), a.unit, fmtBytes(s.Size()))
	return serve.New(s, serve.Config{QueueDepth: a.depth, FlushDelay: a.flush, Workers: a.workers}), nil
}

func fmtBytes(n int64) string {
	return fmt.Sprintf("%.1f MB", float64(n)/units.BytesPerMB)
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
		fmt.Printf("array %s: %s v=%d k=%d, %d units of %d B (%s logical, %s backend)%s\n",
			*dir, m.Method, m.V, m.K, s.Capacity(), m.UnitSize, fmtBytes(s.Size()), kind, degradedTag(s))
		front = serve.New(s, serve.Config{QueueDepth: a.depth, FlushDelay: a.flush, Workers: a.workers})
	} else {
		var err error
		front, err = a.newFrontend()
		if err != nil {
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
	fmt.Printf("serving on %s (queue depth %d, flush %v)\n", ln.Addr(), a.depth, a.flush)
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
			"failed_disk":     st.Failed,
			"failed_disks":    st.FailedDisks,
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
// server on a loopback socket so bench/loadgen still drive real TCP.
// conns is the per-endpoint connection count (0 = CPU-aware default).
// The returned Frontend is non-nil only when self-hosting — it is what
// loadgen -record hooks its trace writer into.
func dialOrSelfHost(addr string, a *arrayFlags, conns int) (*serve.Client, *serve.Frontend, func(), error) {
	cleanup := func() {}
	var front *serve.Frontend
	if addr == "" {
		var err error
		front, err = a.newFrontend()
		if err != nil {
			return nil, nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		srv := serve.NewServer(front)
		go srv.Serve(ln)
		addr = ln.Addr().String()
		fmt.Printf("self-hosted server on %s\n", addr)
		cleanup = func() {
			srv.Close()
			front.Close()
			front.Store().Close()
		}
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

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-hosted)")
	clients := fs.Int("clients", 64, "concurrent client goroutines")
	secs := fs.Float64("seconds", 2, "seconds per measurement")
	seed := fs.Uint64("seed", 1, "bench seed (sets the starting offset of the access sweep)")
	conns := fs.Int("conns", 0, "TCP connections to the server (0 = CPU-aware default)")
	a := addArrayFlags(fs)
	fs.Parse(args)
	c, _, cleanup, err := dialOrSelfHost(*addr, a, *conns)
	if err != nil {
		return err
	}
	defer cleanup()
	unit := c.UnitSize()
	capacity := c.Capacity()
	fmt.Printf("seed %d\n", *seed)

	run := func(name string, op func(c *serve.Client, i int, buf []byte) error) error {
		deadline := time.Now().Add(time.Duration(*secs * float64(time.Second)))
		var ops atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, *clients)
		var next atomic.Int64
		next.Store(int64(*seed % uint64(capacity)))
		// One shared lock-free histogram; every client goroutine records
		// into it directly.
		var hist obs.Hist
		start := time.Now()
		for g := 0; g < *clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, unit)
				for time.Now().Before(deadline) {
					i := int(next.Add(1)) % capacity
					t0 := time.Now()
					if err := op(c, i, buf); err != nil {
						errs <- err
						return
					}
					hist.Record(time.Since(t0))
					ops.Add(1)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		el := time.Since(start)
		sum := hist.Summary()
		fmt.Printf("%-8s %d clients: %10.0f ops/s  %12s  p50 %v  p99 %v\n",
			name, *clients, float64(ops.Load())/el.Seconds(), units.FormatMBPerSec(ops.Load()*int64(unit), el),
			sum.P50.Round(time.Microsecond), sum.P99.Round(time.Microsecond))
		return nil
	}
	if err := run("write", func(c *serve.Client, i int, buf []byte) error { return c.Write(i, buf) }); err != nil {
		return err
	}
	if err := run("read", func(c *serve.Client, i int, buf []byte) error { return c.Read(i, buf) }); err != nil {
		return err
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if st.Frontend.Batches > 0 {
		fmt.Printf("server: %d batches, mean size %.1f (%d flush-on-full, %d flush-on-deadline)\n",
			st.Frontend.Batches, float64(st.Frontend.BatchedOps)/float64(st.Frontend.Batches),
			st.Frontend.FlushFull, st.Frontend.FlushDeadline)
	}
	return nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-hosted)")
	workload := fs.String("workload", "uniform", "uniform|sequential|zipf|mix")
	writeFrac := fs.Float64("write-frac", 0.3, "write fraction for uniform/zipf")
	theta := fs.Float64("theta", 0.9, "zipf skew exponent")
	clients := fs.Int("clients", 16, "concurrent client goroutines")
	ops := fs.Int("ops", 100000, "total operations to replay")
	seed := fs.Uint64("seed", 1, "workload seed")
	failDisk := fs.Int("fail", -1, "fail this disk first and replay degraded")
	background := fs.Bool("background", false, "submit as Background class")
	conns := fs.Int("conns", 0, "TCP connections to the server (0 = CPU-aware default)")
	record := fs.String("record", "", "record the server's request stream to this trace file (self-hosted only)")
	replay := fs.String("replay", "", "replay a recorded trace file instead of generating a workload")
	speed := fs.Float64("speed", 0, "replay speed multiplier (1 = recorded timing, 2 = twice as fast, 0 = flat out)")
	a := addArrayFlags(fs)
	fs.Parse(args)
	c, front, cleanup, err := dialOrSelfHost(*addr, a, *conns)
	if err != nil {
		return err
	}
	defer cleanup()
	capacity := c.Capacity()
	unit := c.UnitSize()

	if *replay != "" {
		return runReplay(c, *replay, *speed)
	}

	var stopRecord func() error
	if *record != "" {
		if front == nil {
			return fmt.Errorf("loadgen: -record needs a self-hosted server (drop -addr)")
		}
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		tw, err := sim.NewTraceWriter(f, unit)
		if err != nil {
			f.Close()
			return err
		}
		front.RecordTrace(tw)
		stopRecord = func() error {
			front.RecordTrace(nil)
			if err := tw.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("recorded %d ops to %s\n", tw.Ops(), *record)
			return nil
		}
	}

	if *failDisk >= 0 {
		if err := c.Fail(*failDisk); err != nil {
			return err
		}
		fmt.Printf("disk %d failed; replaying degraded\n", *failDisk)
	}

	// One deterministic generator per client, split by seed — the same
	// mixes pdl/sim studies (uniform, sequential scan, Zipf hot spots,
	// and the backup+online mix).
	gens := make([]sim.Generator, *clients)
	for g := range gens {
		s := *seed + uint64(g)*0x9E37
		switch *workload {
		case "uniform":
			gens[g] = sim.NewUniform(capacity, *writeFrac, s)
		case "sequential":
			gens[g] = sim.NewSequential(capacity, sim.Read)
		case "zipf":
			gens[g] = sim.NewZipf(capacity, *theta, *writeFrac, s)
		case "mix":
			gens[g] = sim.NewMix(s, []sim.Generator{
				sim.NewSequential(capacity, sim.Write),
				sim.NewZipf(capacity, *theta, *writeFrac, s+1),
			}, []float64{0.2, 0.8})
		default:
			return fmt.Errorf("loadgen: unknown workload %q", *workload)
		}
	}
	fmt.Printf("replaying %d ops of %s over %d clients (seed %d)\n", *ops, gens[0].Name(), *clients, *seed)

	class := serve.Foreground
	if *background {
		class = serve.Background
	}
	perClient := *ops / *clients
	var wg sync.WaitGroup
	errs := make(chan error, *clients)
	// One shared lock-free histogram replaces the per-client sample
	// slices: every goroutine records into it directly.
	var hist obs.Hist
	var reads, writes atomic.Int64
	start := time.Now()
	for g := 0; g < *clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, unit)
			for i := 0; i < perClient; i++ {
				op := gens[g].Next()
				t0 := time.Now()
				var err error
				if op.Kind == sim.Write {
					err = c.WriteClass(op.Logical, buf, class)
					writes.Add(1)
				} else {
					err = c.ReadClass(op.Logical, buf, class)
					reads.Add(1)
				}
				if err != nil {
					errs <- err
					return
				}
				hist.Record(time.Since(t0))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	el := time.Since(start)

	sum := hist.Summary()
	total := reads.Load() + writes.Load()
	fmt.Printf("%d ops (%d reads, %d writes) in %v: %10.0f ops/s  %s\n",
		total, reads.Load(), writes.Load(), el.Round(time.Millisecond),
		float64(total)/el.Seconds(), units.FormatMBPerSec(total*int64(unit), el))
	fmt.Printf("latency: p50 %v  p95 %v  p99 %v  mean %v\n",
		sum.P50.Round(time.Microsecond), sum.P95.Round(time.Microsecond),
		sum.P99.Round(time.Microsecond), sum.Mean.Round(time.Microsecond))
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server: degraded ops %d; %d batches, mean size %.1f\n",
		st.Store.Degraded, st.Frontend.Batches,
		float64(st.Frontend.BatchedOps)/float64(max(st.Frontend.Batches, 1)))
	if stopRecord != nil {
		return stopRecord()
	}
	return nil
}

// runReplay replays a recorded trace file against the connected server
// and reports the latency it measured, split by recorded op class.
func runReplay(c *serve.Client, path string, speed float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := sim.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if tr.UnitSize != c.UnitSize() {
		fmt.Printf("note: trace unit %d B, server unit %d B — replay wraps addresses, latency is not a faithful reproduction\n",
			tr.UnitSize, c.UnitSize())
	}
	pace := "flat out"
	if speed > 0 {
		pace = fmt.Sprintf("at %gx recorded timing", speed)
	}
	fmt.Printf("replaying %d traced ops (%v recorded) %s\n", len(tr.Ops), tr.Duration().Round(time.Millisecond), pace)
	rep, err := scenario.ReplayTrace(&scenario.ClientTarget{C: c}, tr, speed)
	if err != nil {
		return err
	}
	fmt.Printf("%d ops (%d errors) in %v: %10.0f ops/s\n",
		rep.Ops, rep.Errors, rep.Took.Round(time.Millisecond), float64(rep.Ops)/rep.Took.Seconds())
	fmt.Printf("foreground: p50 %v  p95 %v  p99 %v  mean %v\n",
		rep.Foreground.P50.Round(time.Microsecond), rep.Foreground.P95.Round(time.Microsecond),
		rep.Foreground.P99.Round(time.Microsecond), rep.Foreground.Mean.Round(time.Microsecond))
	if rep.Background.Count > 0 {
		fmt.Printf("background: p50 %v  p99 %v  mean %v\n",
			rep.Background.P50.Round(time.Microsecond), rep.Background.P99.Round(time.Microsecond),
			rep.Background.Mean.Round(time.Microsecond))
	}
	return nil
}

// cmdScenario runs a versioned JSON fault schedule against a server —
// remote via -addr, or a self-hosted loopback endpoint — and exits
// nonzero when a declared SLO is violated or verify mode catches a
// data mismatch.
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-hosted)")
	file := fs.String("f", "", "schedule file (JSON, see pdl/scenario)")
	seed := fs.Uint64("seed", 0, "override the schedule's seed (0 = keep the file's)")
	conns := fs.Int("conns", 0, "TCP connections to the server (0 = CPU-aware default)")
	a := addArrayFlags(fs)
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("scenario: -f schedule.json required")
	}
	sc, err := scenario.ReadScheduleFile(*file)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	c, _, cleanup, err := dialOrSelfHost(*addr, a, *conns)
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Printf("running scenario %q (%d phases, seed %d)\n", sc.Name, len(sc.Phases), sc.Seed)
	rep, err := scenario.Run(sc, &scenario.ClientTarget{C: c})
	if rep != nil {
		rep.WriteText(os.Stdout)
	}
	return err
}
