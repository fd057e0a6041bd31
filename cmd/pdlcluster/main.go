// Command pdlcluster drives a sharded byte namespace over many pdlserve
// endpoints: init writes the cluster.json manifest from live shard
// geometry, status reports per-shard health, and bench/loadgen drive
// striped span traffic through the cluster client, reporting aggregate
// throughput plus per-shard latency percentiles.
//
// Usage:
//
//	pdlcluster init -manifest cluster.json -unit 65536 host1:9911 host2:9911 host3:9911
//	pdlcluster status -manifest cluster.json -sync
//	pdlcluster bench -manifest cluster.json -clients 32 -span 65536
//	pdlcluster bench -selfhost 3 -clients 32            # in-process shards
//	pdlcluster loadgen -manifest cluster.json -ops 100000 -write-frac 0.3
//	pdlcluster loadgen -selfhost 3 -fail 1              # degrade shard 1 mid-run
//	pdlcluster scenario -f sched.json -selfhost 3       # scripted fault schedule
//
// scenario runs a versioned JSON fault schedule (see pdl/scenario)
// against the cluster: phased workloads with scripted per-shard disk
// failures and rebuilds, per-phase latency windows, and SLO judgment;
// the process exits nonzero when a declared SLO is violated. The same
// schedule file a pdlserve scenario run uses works here unchanged —
// its events address shard 0 unless they name another shard.
//
// All rates are decimal MB/s (1 MB = 1e6 bytes), matching `go test
// -bench` and the repository benchmark (go run ./bench).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/units"
	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/code"
	"repro/pdl/obs"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/store"
)

func main() {
	if len(os.Args) < 2 {
		die(fmt.Errorf("usage: pdlcluster <init|status|bench|loadgen|scenario> [flags]"))
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "status":
		err = cmdStatus(args)
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
	fmt.Fprintln(os.Stderr, "pdlcluster:", err)
	os.Exit(1)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	manifest := fs.String("manifest", cluster.ManifestName, "manifest path to write")
	unit := fs.Int64("unit", 65536, "shard-unit size in bytes (the striping granularity)")
	policy := fs.String("policy", string(cluster.ByCapacity), "placement policy: capacity|round-robin")
	timeout := fs.Duration("timeout", 5*time.Second, "per-shard dial timeout")
	fs.Parse(args)
	addrs := fs.Args()
	if len(addrs) == 0 {
		return fmt.Errorf("init: no shard addresses given")
	}

	// Dial every shard and derive its capacity in shard-units from the
	// live array, so the manifest never places more than a shard holds.
	man := &cluster.Manifest{
		Version:   cluster.FormatVersion,
		UnitBytes: *unit,
		Policy:    cluster.Policy(*policy),
	}
	for _, addr := range addrs {
		c, err := dialTimeout(addr, *timeout)
		if err != nil {
			return fmt.Errorf("init: shard %s: %w", addr, err)
		}
		size := c.Size()
		st := cluster.ShardHealthy
		if c.Failed() >= 0 {
			st = cluster.ShardDegraded
		}
		sh := cluster.ShardInfo{Addr: addr, State: st}
		// Record the shard's codec only when it tolerates more than one
		// failure: the default stays off the wire format, so clusters of
		// classic XOR shards keep writing format-1 manifests.
		if stats, err := c.Stats(); err == nil && stats.Store.ParityShards > 1 {
			sh.Codec = stats.Store.Codec
			sh.ParityShards = stats.Store.ParityShards
		}
		c.Close()
		n := size / *unit
		if n < 1 {
			return fmt.Errorf("init: shard %s holds %d B, less than one %d B shard-unit", addr, size, *unit)
		}
		sh.Units = n
		man.Shards = append(man.Shards, sh)
		codec := ""
		if sh.Codec != "" {
			codec = fmt.Sprintf(", %s/%d", sh.Codec, sh.ParityShards)
		}
		fmt.Printf("shard %-24s %8d units (%s%s)\n", addr, n, st, codec)
	}
	m, err := man.Map()
	if err != nil {
		return err
	}
	if err := man.WriteFile(*manifest); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d shards, %s policy, %s namespace (%d units of %s)\n",
		*manifest, m.Shards(), man.Policy, fmtBytes(m.Size()), m.Units(), fmtBytes(m.UnitBytes()))
	return nil
}

func dialTimeout(addr string, d time.Duration) (*serve.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return serve.DialContext(ctx, addr)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	manifest := fs.String("manifest", cluster.ManifestName, "manifest path")
	sync := fs.Bool("sync", false, "rewrite the manifest with the observed shard states")
	timeout := fs.Duration("timeout", 2*time.Second, "per-shard dial timeout")
	fs.Parse(args)
	man, err := cluster.ReadFile(*manifest)
	if err != nil {
		return err
	}
	m, err := man.Map()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d shards, %s policy, %s namespace\n", *manifest, m.Shards(), man.Policy, fmtBytes(m.Size()))

	// Each shard is probed independently and best-effort — status must
	// work precisely when part of the cluster is down.
	changed := false
	for s := range man.Shards {
		sh := &man.Shards[s]
		state := cluster.ShardDown
		detail := "unreachable"
		if c, err := dialTimeout(sh.Addr, *timeout); err == nil {
			if st, err := c.Stats(); err == nil {
				switch {
				case st.Store.Rebuilding:
					state = cluster.ShardRebuilding
					detail = fmt.Sprintf("rebuilding disk %d", st.Store.FailedDisk)
				case len(st.Store.FailedDisks) > 1:
					state = cluster.ShardDegraded
					detail = fmt.Sprintf("disks %v down, %d degraded ops", st.Store.FailedDisks, st.Store.Degraded)
				case st.Store.FailedDisk >= 0:
					state = cluster.ShardDegraded
					detail = fmt.Sprintf("disk %d down, %d degraded ops", st.Store.FailedDisk, st.Store.Degraded)
				default:
					state = cluster.ShardHealthy
					detail = fmt.Sprintf("%d reads, %d writes", st.Store.Reads, st.Store.Writes)
				}
				// Refresh the recorded codec info alongside the state
				// (multi-failure shards only; see cmdInit).
				if st.Store.ParityShards > 1 &&
					(sh.Codec != st.Store.Codec || sh.ParityShards != st.Store.ParityShards) {
					sh.Codec = st.Store.Codec
					sh.ParityShards = st.Store.ParityShards
					changed = true
				}
				if sh.Codec != "" {
					detail = fmt.Sprintf("%s/%d, %s", sh.Codec, sh.ParityShards, detail)
				}
			}
			c.Close()
		}
		fmt.Printf("shard %d %-24s %8d units  %-11s %s\n", s, sh.Addr, sh.Units, state, detail)
		if sh.State != state {
			sh.State = state
			changed = true
		}
	}
	if *sync && changed {
		if err := man.WriteFile(*manifest); err != nil {
			return err
		}
		fmt.Printf("synced states to %s\n", *manifest)
	}
	return nil
}

// clusterFlags is the flag set shared by bench and loadgen: either a
// manifest for a live cluster, or -selfhost N in-process MemDisk shards.
type clusterFlags struct {
	manifest         string
	selfhost         int
	unit             int64
	v, k, copies     int
	parity           int
	storeUnit, depth int
	flush            time.Duration
	retries          int
	backoff          time.Duration
	conns            int
	httpAddr         string
}

func addClusterFlags(fs *flag.FlagSet) *clusterFlags {
	cf := &clusterFlags{}
	fs.StringVar(&cf.manifest, "manifest", cluster.ManifestName, "manifest path")
	fs.IntVar(&cf.selfhost, "selfhost", 0, "host N in-process shards instead of reading -manifest")
	fs.Int64Var(&cf.unit, "unit", 65536, "shard-unit size for -selfhost")
	fs.IntVar(&cf.v, "v", 17, "disks per self-hosted shard")
	fs.IntVar(&cf.k, "k", 4, "parity stripe size per self-hosted shard")
	fs.IntVar(&cf.copies, "copies", 4, "layout copies per disk for -selfhost")
	fs.IntVar(&cf.parity, "parity", 1, "parity shards per stripe for -selfhost (1 = XOR, >1 = Reed-Solomon)")
	fs.IntVar(&cf.storeUnit, "store-unit", 4096, "array stripe-unit size for -selfhost")
	fs.IntVar(&cf.depth, "depth", serve.DefaultQueueDepth, "queue depth for -selfhost")
	fs.DurationVar(&cf.flush, "flush", serve.DefaultFlushDelay, "batch flush deadline for -selfhost")
	fs.IntVar(&cf.retries, "retries", cluster.DefaultRetries, "per-shard reconnect budget")
	fs.DurationVar(&cf.backoff, "backoff", cluster.DefaultRetryBackoff, "initial retry backoff")
	fs.IntVar(&cf.conns, "conns", 0, "TCP connections per shard (0 = CPU-aware default)")
	fs.StringVar(&cf.httpAddr, "http", "", "admin HTTP listen address for /metrics, /statusz, /healthz, /debug/pprof (empty: disabled)")
	return cf
}

// open yields a connected cluster client: from the manifest, or from
// -selfhost in-process shards (real TCP on loopback either way).
func (cf *clusterFlags) open() (*cluster.Client, func(), error) {
	cleanup := func() {}
	var man *cluster.Manifest
	if cf.selfhost > 0 {
		var err error
		man, cleanup, err = selfHost(cf)
		if err != nil {
			return nil, nil, err
		}
	} else {
		var err error
		man, err = cluster.ReadFile(cf.manifest)
		if err != nil {
			return nil, nil, err
		}
	}
	c, err := cluster.Open(man, cluster.Options{Retries: cf.retries, RetryBackoff: cf.backoff, Conns: cf.conns})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if cf.httpAddr != "" {
		hln, err := serveAdmin(cf.httpAddr, c)
		if err != nil {
			c.Close()
			cleanup()
			return nil, nil, err
		}
		inner := cleanup
		cleanup = func() { hln.Close(); inner() }
		fmt.Printf("admin http on %s\n", hln.Addr())
	}
	m := c.Map()
	fmt.Printf("cluster: %d shards, %s policy, %s namespace (unit %s)\n",
		m.Shards(), man.Policy, fmtBytes(m.Size()), fmtBytes(m.UnitBytes()))
	return c, func() { c.Close(); cleanup() }, nil
}

// serveAdmin starts the obs admin endpoint over the cluster client's
// per-shard metrics, with the shard map as a /statusz section.
func serveAdmin(addr string, c *cluster.Client) (net.Listener, error) {
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	h := obs.NewHandler(reg)
	h.AddStatus("cluster", func() any {
		m := c.Map()
		man := c.Manifest()
		return map[string]any{
			"shards":     m.Shards(),
			"policy":     man.Policy,
			"size_bytes": m.Size(),
			"unit_bytes": m.UnitBytes(),
			"shard_map":  man.Shards,
			// The GF(2^8) kernel of THIS process: what self-hosted shards
			// run; remote shards report their own on their statusz.
			"kernel": code.Kernel(),
		}
	})
	h.AddStatus("shards", func() any { return c.Stats() })
	hln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(hln, h)
	return hln, nil
}

// selfHost stands up cf.selfhost MemDisk shards behind real TCP servers
// and a capacity manifest over them.
func selfHost(cf *clusterFlags) (*cluster.Manifest, func(), error) {
	if cf.unit%int64(cf.storeUnit) != 0 {
		return nil, nil, fmt.Errorf("selfhost: shard-unit %d is not a multiple of store unit %d", cf.unit, cf.storeUnit)
	}
	man := &cluster.Manifest{Version: cluster.FormatVersion, UnitBytes: cf.unit, Policy: cluster.ByCapacity}
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i := 0; i < cf.selfhost; i++ {
		var opts []pdl.Option
		if cf.parity > 1 {
			opts = append(opts, pdl.WithParityShards(cf.parity))
		}
		res, err := pdl.Build(cf.v, cf.k, opts...)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		s, err := store.Open(res, cf.copies*res.Layout.Size, cf.storeUnit, nil)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		front := serve.New(s, serve.Config{QueueDepth: cf.depth, FlushDelay: cf.flush})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			front.Close()
			s.Close()
			cleanup()
			return nil, nil, err
		}
		srv := serve.NewServer(front)
		go srv.Serve(ln)
		closers = append(closers, func() { srv.Close(); front.Close(); s.Close() })
		n := s.Size() / cf.unit
		if n < 1 {
			cleanup()
			return nil, nil, fmt.Errorf("selfhost: shard holds %d B, less than one %d B shard-unit", s.Size(), cf.unit)
		}
		sh := cluster.ShardInfo{Addr: ln.Addr().String(), Units: n, State: cluster.ShardHealthy}
		if cf.parity > 1 {
			sh.Codec = s.Code().Name()
			sh.ParityShards = s.Code().ParityShards()
		}
		man.Shards = append(man.Shards, sh)
	}
	fmt.Printf("self-hosted %d shards (v=%d k=%d, %s each)\n",
		cf.selfhost, cf.v, cf.k, fmtBytes(man.Shards[0].Units*cf.unit))
	return man, cleanup, nil
}

func fmtBytes(n int64) string {
	if n < 10*units.BytesPerMB {
		return fmt.Sprintf("%.1f kB", float64(n)/1e3)
	}
	return fmt.Sprintf("%.1f MB", float64(n)/units.BytesPerMB)
}

// printShardStats renders the per-shard table bench and loadgen share.
func printShardStats(c *cluster.Client) {
	fmt.Printf("%-5s %-24s %-11s %8s %8s %9s %9s %9s %9s\n",
		"shard", "addr", "state", "ops", "retries", "p50", "p95", "p99", "mean")
	for s, st := range c.Stats() {
		fmt.Printf("%-5d %-24s %-11s %8d %8d %9v %9v %9v %9v\n",
			s, st.Addr, st.State, st.Ops, st.Retries,
			st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond),
			st.P99.Round(time.Microsecond), st.Mean.Round(time.Microsecond))
	}
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	clients := fs.Int("clients", 32, "concurrent client goroutines")
	span := fs.Int64("span", 65536, "bytes per operation")
	secs := fs.Float64("seconds", 2, "seconds per measurement")
	seed := fs.Int64("seed", 1, "bench seed (offsets every client's span stream)")
	cf := addClusterFlags(fs)
	fs.Parse(args)
	c, cleanup, err := cf.open()
	if err != nil {
		return err
	}
	defer cleanup()
	size := c.Size()
	unit := c.UnitBytes()
	if *span > size {
		return fmt.Errorf("bench: span %d exceeds namespace %d", *span, size)
	}
	spanSlots := (size - *span) / unit
	fmt.Printf("seed %d\n", *seed)

	run := func(name string, op func(p []byte, off int64) (int, error)) error {
		deadline := time.Now().Add(time.Duration(*secs * float64(time.Second)))
		var ops atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, *clients)
		start := time.Now()
		for g := 0; g < *clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(g)*7919 + 1))
				buf := make([]byte, *span)
				rng.Read(buf)
				for time.Now().Before(deadline) {
					off := rng.Int63n(spanSlots+1) * unit
					if _, err := op(buf, off); err != nil {
						errs <- err
						return
					}
					ops.Add(1)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		el := time.Since(start)
		fmt.Printf("%-8s %d clients x %s spans: %10.0f ops/s  %12s\n",
			name, *clients, fmtBytes(*span), float64(ops.Load())/el.Seconds(),
			units.FormatMBPerSec(ops.Load()**span, el))
		return nil
	}
	if err := run("write", c.WriteAt); err != nil {
		return err
	}
	if err := run("read", c.ReadAt); err != nil {
		return err
	}
	printShardStats(c)
	return nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	clients := fs.Int("clients", 16, "concurrent client goroutines")
	ops := fs.Int("ops", 50000, "total operations to replay")
	span := fs.Int64("span", 65536, "max bytes per operation (spans are 1..span, unaligned)")
	writeFrac := fs.Float64("write-frac", 0.3, "write fraction")
	seed := fs.Int64("seed", 1, "workload seed")
	failShard := fs.Int("fail", -1, "mid-run: fail a disk on this shard and keep going")
	cf := addClusterFlags(fs)
	fs.Parse(args)
	c, cleanup, err := cf.open()
	if err != nil {
		return err
	}
	defer cleanup()
	size := c.Size()
	if *span > size {
		return fmt.Errorf("loadgen: span %d exceeds namespace %d", *span, size)
	}

	// Mid-run shard degradation: after ~1/3 of the ops, fail one disk on
	// the victim shard over the wire. The cluster keeps serving — that
	// shard reconstructs through parity; the rest are unaffected.
	var failAt int64 = -1
	if *failShard >= 0 {
		if *failShard >= c.Shards() {
			return fmt.Errorf("loadgen: -fail %d out of range (%d shards)", *failShard, c.Shards())
		}
		failAt = int64(*ops) / 3
	}
	var done atomic.Int64
	failOnce := sync.OnceFunc(func() {
		addr := c.Manifest().Shards[*failShard].Addr
		sc, err := dialTimeout(addr, 5*time.Second)
		if err != nil {
			fmt.Printf("fail shard %d: %v\n", *failShard, err)
			return
		}
		defer sc.Close()
		if err := sc.Fail(0); err != nil {
			fmt.Printf("fail shard %d: %v\n", *failShard, err)
			return
		}
		fmt.Printf("shard %d: disk 0 failed mid-run; serving degraded\n", *failShard)
	})

	perClient := *ops / *clients
	fmt.Printf("replaying %d ops over %d clients (seed %d)\n", *ops, *clients, *seed)
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
			rng := rand.New(rand.NewSource(*seed + int64(g)*0x9E37))
			buf := make([]byte, *span)
			rng.Read(buf)
			for i := 0; i < perClient; i++ {
				if d := done.Add(1); failAt >= 0 && d >= failAt {
					failOnce()
				}
				n := 1 + rng.Int63n(*span)
				off := rng.Int63n(size - n + 1)
				t0 := time.Now()
				var err error
				if rng.Float64() < *writeFrac {
					_, err = c.WriteAt(buf[:n], off)
					writes.Add(1)
				} else {
					_, err = c.ReadAt(buf[:n], off)
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
	bytesMoved := total * (*span + 1) / 2 // spans are uniform on [1,span]
	fmt.Printf("%d ops (%d reads, %d writes) in %v: %10.0f ops/s  ~%s\n",
		total, reads.Load(), writes.Load(), el.Round(time.Millisecond),
		float64(total)/el.Seconds(), units.FormatMBPerSec(bytesMoved, el))
	fmt.Printf("span latency: p50 %v  p95 %v  p99 %v  mean %v\n",
		sum.P50.Round(time.Microsecond), sum.P95.Round(time.Microsecond),
		sum.P99.Round(time.Microsecond), sum.Mean.Round(time.Microsecond))
	printShardStats(c)
	return nil
}

// cmdScenario runs a versioned JSON fault schedule against the cluster
// and exits nonzero when a declared SLO is violated or verify mode
// catches a data mismatch. Disk fail and rebuild events reach their
// shard over the admin wire; kill/restart events need a process
// supervisor and are rejected here (use the scenariotest harness in Go
// tests for those).
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	file := fs.String("f", "", "schedule file (JSON, see pdl/scenario)")
	seed := fs.Uint64("seed", 0, "override the schedule's seed (0 = keep the file's)")
	opUnit := fs.Int64("op-unit", 0, "bytes per scenario op (0 = one shard-unit)")
	cf := addClusterFlags(fs)
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
	c, cleanup, err := cf.open()
	if err != nil {
		return err
	}
	defer cleanup()
	tgt := scenario.NewClusterTarget(c, *opUnit)
	defer tgt.Close()
	fmt.Printf("running scenario %q (%d phases, seed %d, %s per op)\n",
		sc.Name, len(sc.Phases), sc.Seed, fmtBytes(tgt.Unit))
	rep, err := scenario.Run(sc, tgt)
	if rep != nil {
		rep.WriteText(os.Stdout)
	}
	return err
}
