package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/serve"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

// Reference geometry G17: pdl.Build(17, 5, WithParityShards(m)) — the
// ring construction, 80 units per disk per copy, declustering ratio
// α = (k-1)/(v-1) = 0.25 — with 4 KiB stripe units. Every workload and
// every rung of the traced run uses it; only copies per disk, codec,
// backend and health differ.
const (
	g17V     = 17
	g17K     = 5
	unitSize = 4096
	spanSize = 64 << 10
)

// Entry layers, outermost first. A workload drives its entry layer; the
// traced run stands up every layer above it too, so one ladder covers
// the whole stack on the workload's configuration.
const (
	entryCluster  = "cluster"
	entryServe    = "serve"
	entryFrontend = "frontend"
	entryStore    = "store"
)

// workload is one named traffic mix and the configuration it runs on.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Entry   string `json:"entry"`
	Shards  int    `json:"shards"`
	Parity  int    `json:"parity_shards"`
	Codec   string `json:"codec"`   // what Parity selects: 1 = xor, 2 = rs
	Backend string `json:"backend"` // mem | file | mmap
	Copies  int    `json:"copies"`

	// Serve is the serve.Config of the workload's frontends; nil when
	// the workload has no serve layer (the traced run then adds one with
	// FlushDelay -1 for the ladder's upper rungs).
	Serve *serve.Config `json:"serve_config,omitempty"`

	// Callers is the closed-loop client count: callers wait for replies,
	// they are not independent users. Two everywhere but on the cluster
	// workload, where two callers leave the path bound by goroutine
	// wake-up latency across the sandbox's two vCPUs — a quantity that
	// wandered by ±20 % between runs of identical code — and four keep
	// both CPUs busy, which made it three to five times steadier.
	Callers   int     `json:"callers"`
	OpBytes   int     `json:"op_bytes"`
	WriteFrac float64 `json:"write_fraction"`
	Zipf      float64 `json:"zipf_theta"` // 0 = uniform
	Depth     int     `json:"outstanding_per_caller"`

	// Failed disks are down for the whole window (after the fill).
	Failed []int `json:"failed_disks,omitempty"`
	// Operator runs {fail RebuildDisks, hold, rebuild each} cycles during
	// the window, over TCP.
	Operator bool `json:"operator"`
	// RebuildDisks are the disks every fail/rebuild cycle loses.
	RebuildDisks []int `json:"rebuild_disks"`
}

var flushNow = &serve.Config{FlushDelay: -1}

// workloads is the benchmark's fixed set; BENCHMARK.json lists the same
// names (bench_test.go keeps the two from drifting).
var workloads = []*workload{
	{
		Name: "cluster-span-xor-mem",
		Why: "client-facing fast path: cluster fan-out, wire v2 streams and batching do the work; " +
			"code and backend do almost none, so kernel and backend changes must not move it",
		Entry: entryCluster, Shards: 2, Parity: 1, Codec: "xor", Backend: "mem", Copies: 32, Serve: flushNow,
		Callers: 4, OpBytes: spanSize, WriteFrac: 0.2, Depth: 1, RebuildDisks: []int{0},
	},
	{
		Name: "store-unit-rs-degraded",
		Why: "in-process store with two disks down: RS update/reconstruct kernels, multi-survivor plans and " +
			"stripe locks dominate; serve, wire and cluster are absent",
		Entry: entryStore, Shards: 1, Parity: 2, Codec: "rs", Backend: "mem", Copies: 32,
		Callers: 2, OpBytes: unitSize, WriteFrac: 0.5, Depth: 1, Failed: []int{0, 1}, RebuildDisks: []int{0, 1},
	},
	{
		Name: "serve-rebuild-rs-file",
		Why: "the paper's headline: rebuild a lost disk online under load, on files behind TCP with RS and " +
			"the shipped serve.Config; backend I/O, Store.Rebuild and the flush policy dominate",
		Entry: entryServe, Shards: 1, Parity: 2, Codec: "rs", Backend: "file", Copies: 204, Serve: &serve.Config{},
		Callers: 2, OpBytes: unitSize, WriteFrac: 0.3, Depth: 1, Operator: true, RebuildDisks: []int{0},
	},
	{
		Name: "frontend-smallwrite-xor-mmap",
		Why: "write-heavy, skewed, batched, no network: WriteVec stripe grouping, full-stripe promotion, " +
			"the XOR write executor and the mmap backend",
		Entry: entryFrontend, Shards: 1, Parity: 1, Codec: "xor", Backend: "mmap", Copies: 32, Serve: flushNow,
		Callers: 2, OpBytes: unitSize, WriteFrac: 0.7, Zipf: 0.9, Depth: 16, RebuildDisks: []int{0},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// shard is one array and the serving layers stood up over it.
type shard struct {
	arr       *array.Array // nil for MemDisk arrays
	st        *store.Store
	front     *serve.Frontend
	srv       *serve.Server
	served    chan struct{} // closed when srv.Serve returned
	addr      string
	client    *serve.Client
	diskBytes int64
	// spares are MemDisks a rebuild swapped out, reused as the next
	// replacement: a rebuild overwrites every unit of its target, and a
	// fresh 10 MB slab per cycle would time the allocator, not the store.
	spares []store.Backend
}

// fail and rebuild go to the array when there is one, so the scrub, the
// staging file, the rename and the manifest sync are all paid, as
// `pdlserve serve -dir` pays them.
func (sh *shard) fail(d int) error {
	if sh.arr != nil {
		return sh.arr.Fail(d)
	}
	return sh.st.Fail(d)
}

func (sh *shard) rebuild() error {
	if sh.arr != nil {
		_, err := sh.arr.Rebuild()
		return err
	}
	old := sh.st.DiskBackend(sh.st.Failed())
	var spare store.Backend
	if n := len(sh.spares); n > 0 {
		spare, sh.spares = sh.spares[n-1], sh.spares[:n-1]
	} else {
		spare = store.NewMemDisk(sh.diskBytes)
	}
	if err := sh.st.Rebuild(spare); err != nil {
		return err
	}
	sh.spares = append(sh.spares, old)
	return nil
}

// stack is everything one workload run provisions.
type stack struct {
	w       *workload
	layout  *pdl.Result
	shards  []*shard
	cluster *cluster.Client
	dir     string // array directories live here; removed by close
	size    int64  // bytes the workload addresses
}

var layerRank = map[string]int{entryStore: 0, entryFrontend: 1, entryServe: 2, entryCluster: 3}

// layerAtOrAbove reports whether a stack whose outermost layer is top
// includes layer.
func layerAtOrAbove(top, layer string) bool { return layerRank[top] >= layerRank[layer] }

// setup builds the workload's stack up to its entry layer — or up to the
// cluster client when full is set — and fills every array with version-1
// payloads. This is what setup_s times.
func setup(cfg *config, w *workload, full bool) (_ *stack, err error) {
	top := w.Entry
	if full {
		top = entryCluster
	}
	st := &stack{w: w}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var opts []pdl.Option
	if w.Parity > 1 {
		opts = append(opts, pdl.WithParityShards(w.Parity))
	}
	if st.layout, err = pdl.Build(g17V, g17K, opts...); err != nil {
		return nil, err
	}
	copies := w.Copies
	if cfg.copiesCap > 0 && copies > cfg.copiesCap {
		copies = cfg.copiesCap
	}
	diskUnits := copies * st.layout.Layout.Size
	if w.Backend != "mem" {
		if err = os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if st.dir, err = os.MkdirTemp(cfg.out, "data-"); err != nil {
			return nil, err
		}
	}
	scfg := flushNow
	if w.Serve != nil {
		scfg = w.Serve
	}
	for i := 0; i < w.Shards; i++ {
		sh := &shard{diskBytes: int64(diskUnits) * unitSize}
		st.shards = append(st.shards, sh)
		if w.Backend == "mem" {
			sh.st, err = store.Open(st.layout, diskUnits, unitSize, nil)
		} else {
			sh.arr, err = array.Create(filepath.Join(st.dir, fmt.Sprintf("shard%d", i)), array.CreateOptions{
				V: g17V, K: g17K, Copies: copies, UnitSize: unitSize,
				Backend: array.BackendKind(w.Backend), ParityShards: w.Parity,
			})
			if err == nil {
				sh.st = sh.arr.Store()
			}
		}
		if err != nil {
			return nil, err
		}
		if !layerAtOrAbove(top, entryFrontend) {
			continue
		}
		sh.front = serve.New(sh.st, *scfg)
		if !layerAtOrAbove(top, entryServe) {
			continue
		}
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, lerr
		}
		sh.srv = serve.NewServer(sh.front)
		if sh.arr != nil {
			arr := sh.arr
			sh.srv.FailDisk = arr.Fail
			sh.srv.RebuildDisk = func() error { _, err := arr.Rebuild(); return err }
		}
		sh.addr = ln.Addr().String()
		sh.served = make(chan struct{})
		go func() {
			defer close(sh.served)
			sh.srv.Serve(ln)
		}()
		if w.Entry == entryServe || full {
			if sh.client, err = serve.Dial(sh.addr, serve.WithConns(1)); err != nil {
				return nil, err
			}
		}
	}
	st.size = st.shards[0].st.Size()
	var fillTo io.WriterAt = st.shards[0].st
	if layerAtOrAbove(top, entryCluster) {
		man := &cluster.Manifest{Version: cluster.FormatVersion, UnitBytes: unitSize, Policy: cluster.ByCapacity}
		for _, sh := range st.shards {
			info := cluster.ShardInfo{Addr: sh.addr, Units: sh.st.Size() / unitSize, State: cluster.ShardHealthy}
			if w.Parity > 1 {
				info.Codec, info.ParityShards = sh.st.Code().Name(), w.Parity
			}
			man.Shards = append(man.Shards, info)
		}
		if st.cluster, err = cluster.Open(man, cluster.Options{Conns: 1}); err != nil {
			return nil, err
		}
		st.size = st.cluster.Size()
		fillTo = st.cluster
	}
	if err = fill(fillTo, st.size, cfg.seed, w.OpBytes); err != nil {
		return nil, err
	}
	if err = st.failConfigured(); err != nil {
		return nil, err
	}
	return st, nil
}

// close tears the stack down outermost layer first and waits for every
// goroutine it started.
func (st *stack) close() {
	if st.cluster != nil {
		st.cluster.Close()
	}
	for _, sh := range st.shards {
		if sh.client != nil {
			sh.client.Close()
		}
		if sh.srv != nil {
			sh.srv.Close()
			<-sh.served
		}
		if sh.front != nil {
			sh.front.Close()
		}
		switch {
		case sh.arr != nil:
			sh.arr.Close()
		case sh.st != nil:
			sh.st.Close()
		}
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// fill writes the version-1 payload of every op-unit through w in 1 MiB
// chunks from two goroutines.
func fill(w io.WriterAt, size int64, seed uint64, opBytes int) error {
	const chunk, fillers = 1 << 20, 2
	m := &model{seed: seed, opBytes: opBytes}
	var wg sync.WaitGroup
	errs := make([]error, fillers)
	for c := 0; c < fillers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, chunk)
			for off := int64(c) * chunk; off < size; off += fillers * chunk {
				p := buf[:min(chunk, size-off)]
				m.expect(p, off)
				if _, err := w.WriteAt(p, off); err != nil {
					errs[c] = fmt.Errorf("fill at %d: %w", off, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildSample is one fail/rebuild cycle measured on an idle array.
type rebuildSample struct {
	Seconds   float64 // wall time of all Rebuild calls of the cycle
	Calls     int
	Bytes     int64   // bytes reconstructed
	Reads     []int64 // unit reads per disk during the cycle's rebuilds
	ReadFrac  float64 // mean over calls and survivors of reads / disk units
	Imbalance float64 // max/min reads over the disks that never failed in the cycle
	Mallocs   uint64
}

// rebuildCycle fails the workload's RebuildDisks on shard 0 (those not
// already down) and rebuilds each, leaving the array healthy.
func (st *stack) rebuildCycle() (rebuildSample, error) {
	sh := st.shards[0]
	disks := st.w.RebuildDisks
	down := map[int]bool{}
	for _, d := range sh.st.FailedDisks() {
		down[d] = true
	}
	for _, d := range disks {
		if !down[d] {
			if err := sh.fail(d); err != nil {
				return rebuildSample{}, err
			}
		}
	}
	diskUnits := float64(sh.st.Mapper().DiskUnits())
	rs := rebuildSample{Calls: len(disks), Bytes: sh.diskBytes * int64(len(disks)), Reads: make([]int64, g17V)}
	mallocs := mallocCount()
	for range disks {
		before := sh.st.Stats()
		t0 := time.Now()
		if err := sh.rebuild(); err != nil {
			return rebuildSample{}, err
		}
		rs.Seconds += time.Since(t0).Seconds()
		after := sh.st.Stats()
		survivors := 0
		var reads int64
		for d := range after.Disks {
			n := after.Disks[d].Reads - before.Disks[d].Reads
			rs.Reads[d] += n
			if n > 0 {
				survivors++
				reads += n
			}
		}
		if survivors > 0 {
			rs.ReadFrac += float64(reads) / float64(survivors) / diskUnits / float64(len(disks))
		}
	}
	rs.Mallocs = mallocCount() - mallocs
	lo, hi := int64(-1), int64(0)
	for d, n := range rs.Reads {
		if inList(disks, d) {
			continue
		}
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo > 0 {
		rs.Imbalance = float64(hi) / float64(lo)
	}
	return rs, nil
}

// idleRebuilds runs warm unmeasured and then the measured fail/rebuild
// cycles on the idle stack and returns the measured ones: at least
// atLeast of them, and as many as fit in floor.
func (st *stack) idleRebuilds(warm, atLeast int, floor time.Duration) ([]rebuildSample, error) {
	var cycles []rebuildSample
	start := time.Now()
	for i := 0; len(cycles) < atLeast || time.Since(start) < floor; i++ {
		rs, err := st.rebuildCycle()
		if err != nil {
			return nil, fmt.Errorf("rebuild cycle: %w", err)
		}
		if i >= warm {
			cycles = append(cycles, rs)
		}
	}
	return cycles, nil
}

// failConfigured takes the workload's Failed disks down: after the fill,
// and again after a batch of rebuild cycles has left the array healthy.
func (st *stack) failConfigured() error {
	for _, d := range st.w.Failed {
		if err := st.shards[0].fail(d); err != nil {
			return err
		}
	}
	return nil
}

func inList(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// verifyParity audits every store the stack provisioned.
func (st *stack) verifyParity() error {
	for i, sh := range st.shards {
		if failed := sh.st.FailedDisks(); len(failed) > 0 {
			return fmt.Errorf("shard %d still has disks %v down at the final audit", i, failed)
		}
		if err := sh.st.VerifyParity(); err != nil {
			return fmt.Errorf("shard %d parity: %w", i, err)
		}
	}
	return nil
}
