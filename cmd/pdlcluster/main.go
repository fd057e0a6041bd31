// Command pdlcluster drives a sharded byte namespace over many pdlserve
// endpoints: init writes the cluster.json manifest from live shard
// geometry, status reports per-shard health, and loadgen drives a seeded
// workload of striped spans through the cluster client on the
// pdl/scenario engine, ending with per-shard latency percentiles.
//
// Usage:
//
//	pdlcluster init -manifest cluster.json -unit 65536 host1:9911 host2:9911 host3:9911
//	pdlcluster status -manifest cluster.json -sync
//	pdlcluster loadgen -manifest cluster.json -ops 100000 -write-frac 0.3
//	pdlcluster loadgen -selfhost 3 -clients 32 -duration 2s   # in-process shards
//	pdlcluster loadgen -selfhost 3 -fail 1              # degrade shard 1 mid-run
//	pdlcluster scenario -f sched.json -selfhost 3       # scripted fault schedule
//
// loadgen is a one-phase scenario built from its flags (see
// cmd/internal/loadgen; pdlstore and pdlserve take the same ones);
// scenario runs a versioned JSON fault schedule (see pdl/scenario)
// against the cluster: phased workloads with scripted per-shard disk
// failures and rebuilds, per-phase latency windows, and SLO judgment.
// Either exits nonzero on an op error or a violated SLO. The same
// schedule file a pdlserve scenario run uses works here unchanged —
// its events address shard 0 unless they name another shard. What they
// print is a smoke check; quotable numbers come from the repository
// benchmark (bash bench/run.sh).
//
// All rates are decimal MB/s (1 MB = 1e6 bytes), matching `go test
// -bench` and the repository benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/cmd/internal/loadgen"
	"repro/cmd/internal/selfhost"
	"repro/cmd/internal/units"
	"repro/pdl/cluster"
	"repro/pdl/code"
	"repro/pdl/obs"
	"repro/pdl/scenario"
	"repro/pdl/serve"
)

func main() {
	if len(os.Args) < 2 {
		die(fmt.Errorf("usage: pdlcluster <init|status|loadgen|scenario> [flags]"))
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "status":
		err = cmdStatus(args)
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

// clusterFlags is the flag set shared by loadgen and scenario: either a
// manifest for a live cluster, or -selfhost N in-process MemDisk shards.
type clusterFlags struct {
	manifest string
	selfhost int
	unit     int64
	array    *selfhost.Flags
	retries  int
	backoff  time.Duration
	conns    int
	httpAddr string
}

func addClusterFlags(fs *flag.FlagSet) *clusterFlags {
	cf := &clusterFlags{array: selfhost.AddFlags(fs, "store-unit")}
	fs.StringVar(&cf.manifest, "manifest", cluster.ManifestName, "manifest path")
	fs.IntVar(&cf.selfhost, "selfhost", 0, "host N in-process shards instead of reading -manifest")
	fs.Int64Var(&cf.unit, "unit", 65536, "shard-unit size for -selfhost")
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

// selfHost stands up cf.selfhost MemDisk shards (each the array the
// -v -k -parity -copies -store-unit -depth -flush flags describe)
// behind real TCP servers and a capacity manifest over them.
func selfHost(cf *clusterFlags) (*cluster.Manifest, func(), error) {
	if cf.unit%int64(cf.array.Unit) != 0 {
		return nil, nil, fmt.Errorf("selfhost: shard-unit %d is not a multiple of store unit %d", cf.unit, cf.array.Unit)
	}
	man := &cluster.Manifest{Version: cluster.FormatVersion, UnitBytes: cf.unit, Policy: cluster.ByCapacity}
	var stops []func()
	cleanup := func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 0; i < cf.selfhost; i++ {
		front, addr, stop, err := cf.array.Serve()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		stops = append(stops, stop)
		s := front.Store()
		n := s.Size() / cf.unit
		if n < 1 {
			cleanup()
			return nil, nil, fmt.Errorf("selfhost: shard holds %d B, less than one %d B shard-unit", s.Size(), cf.unit)
		}
		sh := cluster.ShardInfo{Addr: addr, Units: n, State: cluster.ShardHealthy}
		if cf.array.Parity > 1 {
			sh.Codec = s.Code().Name()
			sh.ParityShards = s.Code().ParityShards()
		}
		man.Shards = append(man.Shards, sh)
	}
	return man, cleanup, nil
}

func fmtBytes(n int64) string {
	if n < 10*units.BytesPerMB {
		return fmt.Sprintf("%.1f kB", float64(n)/1e3)
	}
	return fmt.Sprintf("%.1f MB", float64(n)/units.BytesPerMB)
}

// run opens the cluster and runs sc through it at opBytes per op (0 =
// one shard-unit), ending with the per-shard table: client-side ops,
// retries and latency percentiles of every shard.
func (cf *clusterFlags) run(sc *scenario.Scenario, opBytes int64) error {
	c, cleanup, err := cf.open()
	if err != nil {
		return err
	}
	defer cleanup()
	tgt := scenario.NewClusterTarget(c, opBytes)
	defer tgt.Close()
	err = loadgen.Run(sc, tgt)
	fmt.Printf("%-5s %-24s %-11s %8s %8s %9s %9s %9s %9s\n",
		"shard", "addr", "state", "ops", "retries", "p50", "p95", "p99", "mean")
	for s, st := range c.Stats() {
		fmt.Printf("%-5d %-24s %-11s %8d %8d %9v %9v %9v %9v\n",
			s, st.Addr, st.State, st.Ops, st.Retries,
			st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond),
			st.P99.Round(time.Microsecond), st.Mean.Round(time.Microsecond))
	}
	return err
}

// cmdLoadgen drives one seeded workload of -span-byte ops at
// -span-aligned offsets through the cluster client on the scenario
// engine; flags and output are those of cmd/internal/loadgen, shared
// with pdlstore and pdlserve. A -span that is not a multiple of the
// shard-unit makes ops cross shard boundaries (see
// scenario.ClusterTarget for what concurrent workers then require).
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	span := fs.Int64("span", 0, "bytes per operation (0 = one shard-unit)")
	failShard := fs.Int("fail", -1, "a third of the way in: fail disk 0 on this shard and keep going")
	lf := loadgen.AddFlags(fs)
	cf := addClusterFlags(fs)
	fs.Parse(args)
	// Mid-run shard degradation: the cluster keeps serving — that shard
	// reconstructs through parity; the rest are unaffected.
	sc, err := lf.Scenario(lf.FailEvents(*failShard, 0, 1.0/3)...)
	if err != nil {
		return err
	}
	return cf.run(sc, *span)
}

// cmdScenario runs a versioned JSON fault schedule against the cluster
// and exits nonzero when a declared SLO is violated or verify mode
// catches a data mismatch. Disk fail and rebuild events reach their
// shard over the admin wire; kill/restart events need a process
// supervisor and are rejected here (use the scenariotest harness in Go
// tests for those).
func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	opUnit := fs.Int64("op-unit", 0, "bytes per scenario op (0 = one shard-unit)")
	schedule := loadgen.ScheduleFlags(fs)
	cf := addClusterFlags(fs)
	fs.Parse(args)
	sc, err := schedule()
	if err != nil {
		return err
	}
	return cf.run(sc, *opUnit)
}
