// Package scenariotest self-hosts scenario targets for Go regression
// tests: bare arrays, batching frontends, loopback pdlserve endpoints,
// and whole clusters whose shards can be killed and restarted — plus
// the op-budget scaling that lets one schedule run small in CI and
// long in the nightly soak (PDL_SCENARIO_OPS).
//
// Every constructor registers cleanups, so a test just builds a target,
// loads or declares a scenario, and calls Run. Constructors also hook a
// parity audit into cleanup: after the test, every array the harness
// provisioned must still verify, unless the scenario deliberately left
// it degraded.
package scenariotest

import (
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// Array describes the declustered array every harness target serves:
// (V, K) geometry with ParityShards erasure shards (0 or 1 = classic
// XOR, 2+ = Reed-Solomon). The zero value is the repo's canonical test
// array: 13 disks, stripes of 4, XOR parity, 32-byte units.
type Array struct {
	V, K         int
	ParityShards int
	UnitSize     int
	// Copies scales capacity in whole layout copies (default 1).
	Copies int
}

func (a Array) withDefaults() Array {
	if a.V == 0 {
		a.V = 13
	}
	if a.K == 0 {
		a.K = 4
	}
	if a.UnitSize == 0 {
		a.UnitSize = 32
	}
	if a.Copies == 0 {
		a.Copies = 1
	}
	return a
}

// build provisions the MemDisk-backed store.
func (a Array) build(tb testing.TB) *store.Store {
	tb.Helper()
	a = a.withDefaults()
	var opts []pdl.Option
	if a.ParityShards > 1 {
		opts = append(opts, pdl.WithParityShards(a.ParityShards))
	}
	res, err := pdl.Build(a.V, a.K, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := store.Open(res, a.Copies*res.Layout.Size, a.UnitSize, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// auditParity registers a cleanup that verifies s's parity once the
// test ends — skipped if the scenario deliberately left disks failed,
// since parity is unverifiable through a hole.
func auditParity(tb testing.TB, s *store.Store) {
	tb.Cleanup(func() {
		if tb.Failed() || len(s.FailedDisks()) != 0 {
			return
		}
		if err := s.VerifyParity(); err != nil {
			tb.Errorf("scenariotest: parity audit after scenario: %v", err)
		}
	})
}

// NewStore builds a bare in-process array target.
func NewStore(tb testing.TB, a Array) *scenario.StoreTarget {
	tb.Helper()
	s := a.build(tb)
	tb.Cleanup(func() { s.Close() })
	auditParity(tb, s)
	return &scenario.StoreTarget{S: s}
}

// NewFrontend builds a batching-frontend target over a fresh array.
func NewFrontend(tb testing.TB, a Array, cfg serve.Config) *scenario.FrontendTarget {
	tb.Helper()
	s := a.build(tb)
	f := serve.New(s, cfg)
	tb.Cleanup(func() {
		f.Close()
		s.Close()
	})
	auditParity(tb, s)
	return &scenario.FrontendTarget{F: f}
}

// Shard is one self-hosted pdlserve endpoint: a MemDisk array behind a
// frontend behind a TCP server on loopback. The store and frontend
// outlive server restarts, so Kill and Restart model a crashed and
// revived pdlserve whose data survives.
type Shard struct {
	tb    testing.TB
	Store *store.Store
	Front *serve.Frontend
	Addr  string

	mu   sync.Mutex
	srv  *serve.Server
	done chan error
}

// StartShard provisions one shard and starts serving.
func StartShard(tb testing.TB, a Array, cfg serve.Config) *Shard {
	tb.Helper()
	s := a.build(tb)
	sh := &Shard{tb: tb, Store: s, Front: serve.New(s, cfg)}
	tb.Cleanup(func() {
		sh.Kill()
		sh.Front.Close()
		s.Close()
	})
	auditParity(tb, s)
	sh.listen("127.0.0.1:0")
	return sh
}

func (sh *Shard) listen(addr string) {
	sh.tb.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sh.tb.Fatal(err)
	}
	sh.Addr = ln.Addr().String()
	srv := serve.NewServer(sh.Front)
	done := make(chan error, 1)
	sh.mu.Lock()
	sh.srv, sh.done = srv, done
	sh.mu.Unlock()
	go func() { done <- srv.Serve(ln) }()
}

// Kill stops the shard's network face; its store keeps the bytes.
// Killing a dead shard is a no-op.
func (sh *Shard) Kill() error {
	sh.mu.Lock()
	srv, done := sh.srv, sh.done
	sh.srv = nil
	sh.mu.Unlock()
	if srv == nil {
		return nil
	}
	srv.Close()
	return <-done
}

// Restart revives a killed shard on its previous port. The old
// listener may still be settling, so binding retries briefly.
func (sh *Shard) Restart() error {
	sh.mu.Lock()
	running := sh.srv != nil
	sh.mu.Unlock()
	if running {
		return nil
	}
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", sh.Addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	srv := serve.NewServer(sh.Front)
	done := make(chan error, 1)
	sh.mu.Lock()
	sh.srv, sh.done = srv, done
	sh.mu.Unlock()
	go func() { done <- srv.Serve(ln) }()
	return nil
}

// NewServe builds a loopback-TCP target: one shard served over the
// wire through a serve.Client.
func NewServe(tb testing.TB, a Array, cfg serve.Config) *scenario.ClientTarget {
	tb.Helper()
	sh := StartShard(tb, a, cfg)
	c, err := serve.Dial(sh.Addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return &scenario.ClientTarget{C: c}
}

// Cluster is a self-hosted shard fleet plus the manifest placing a
// byte namespace across it.
type Cluster struct {
	Shards   []*Shard
	Manifest *cluster.Manifest
}

// StartCluster provisions one shard per entry of shardUnits, each an
// Array from a, and a manifest striping unitBytes-sized shard-units
// over them.
func StartCluster(tb testing.TB, a Array, unitBytes int64, shardUnits []int64, policy cluster.Policy, cfg serve.Config) *Cluster {
	tb.Helper()
	a = a.withDefaults()
	tc := &Cluster{Manifest: &cluster.Manifest{
		Version:   cluster.FormatVersion,
		UnitBytes: unitBytes,
		Policy:    policy,
	}}
	for _, units := range shardUnits {
		// Scale layout copies until the shard's capacity covers its
		// placement.
		sa := a
		for {
			sh := probeSize(tb, sa)
			if sh >= units*unitBytes {
				break
			}
			sa.Copies *= 2
		}
		sh := StartShard(tb, sa, cfg)
		tc.Shards = append(tc.Shards, sh)
		tc.Manifest.Shards = append(tc.Manifest.Shards, cluster.ShardInfo{
			Addr:  sh.Addr,
			Units: units,
			State: cluster.ShardHealthy,
		})
	}
	return tc
}

// probeSize computes the logical byte size an Array would serve without
// provisioning it.
func probeSize(tb testing.TB, a Array) int64 {
	tb.Helper()
	a = a.withDefaults()
	var opts []pdl.Option
	if a.ParityShards > 1 {
		opts = append(opts, pdl.WithParityShards(a.ParityShards))
	}
	res, err := pdl.Build(a.V, a.K, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := res.NewMapper(a.Copies * res.Layout.Size)
	if err != nil {
		tb.Fatal(err)
	}
	return int64(m.DataUnits()) * int64(a.UnitSize)
}

// NewCluster opens a client over the fleet and wraps it as a scenario
// target whose kill/restart events drive the harness shards. unit is
// the bytes one scenario op moves (see scenario.ClusterTarget for the
// alignment rules); opts should carry generous Retries for schedules
// with kill windows.
func (tc *Cluster) NewCluster(tb testing.TB, unit int64, opts cluster.Options) *scenario.ClusterTarget {
	tb.Helper()
	c, err := cluster.Open(tc.Manifest, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	tgt := scenario.NewClusterTarget(c, unit)
	tgt.OnKill = func(shard int) error {
		if shard < 0 || shard >= len(tc.Shards) {
			return errShard(shard, len(tc.Shards))
		}
		return tc.Shards[shard].Kill()
	}
	tgt.OnRestart = func(shard int) error {
		if shard < 0 || shard >= len(tc.Shards) {
			return errShard(shard, len(tc.Shards))
		}
		return tc.Shards[shard].Restart()
	}
	tb.Cleanup(func() { tgt.Close() })
	return tgt
}

func errShard(shard, n int) error {
	return &shardRangeError{shard: shard, n: n}
}

type shardRangeError struct{ shard, n int }

func (e *shardRangeError) Error() string {
	return "scenariotest: shard " + strconv.Itoa(e.shard) + " outside fleet of " + strconv.Itoa(e.n)
}

// Ops returns the per-phase op budget regression scenarios should use:
// def normally, PDL_SCENARIO_OPS when set (the nightly workflow cranks
// it up for the long -race table), and a quarter of def under -short.
func Ops(def int64) int64 {
	if v := os.Getenv("PDL_SCENARIO_OPS"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		if def = def / 4; def < 50 {
			def = 50
		}
	}
	return def
}

// Scale returns a deep copy of sc with every phase's op budget set to
// ops and each event's at_ops trigger rescaled proportionally, so one
// checked-in schedule runs small in CI and long in the nightly without
// its events drifting out of the load window.
func Scale(sc *scenario.Scenario, ops int64) *scenario.Scenario {
	out := *sc
	out.Phases = make([]scenario.Phase, len(sc.Phases))
	for i, p := range sc.Phases {
		q := p
		if p.Load.Ops > 0 && p.Load.Ops != ops {
			q.Load.Ops = ops
			q.Events = make([]scenario.Event, len(p.Events))
			for j, ev := range p.Events {
				if ev.AtOps > 0 {
					ev.AtOps = ev.AtOps * ops / p.Load.Ops
					if ev.AtOps < 1 {
						ev.AtOps = 1
					}
				}
				q.Events[j] = ev
			}
		}
		if p.SLO != nil {
			slo := *p.SLO
			q.SLO = &slo
		}
		out.Phases[i] = q
	}
	if sc.Background != nil {
		bg := *sc.Background
		out.Background = &bg
	}
	return &out
}

// Run executes the scenario against the target, logs the report table,
// and fails the test on any SLO violation, data mismatch, or engine
// error. It returns the report for extra assertions.
func Run(tb testing.TB, sc *scenario.Scenario, tgt scenario.Target) *scenario.Report {
	tb.Helper()
	rep, err := scenario.Run(sc, tgt)
	if rep != nil {
		var b reportBuf
		rep.WriteText(&b)
		tb.Log("\n" + string(b))
	}
	if err != nil {
		tb.Fatalf("scenariotest: %s on %s: %v", sc.Name, tgt.Name(), err)
	}
	return rep
}

type reportBuf []byte

func (b *reportBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
