package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/pdl/code"
	"repro/pdl/plan"
	"repro/pdl/scenario"
	"repro/pdl/sim"
	"repro/pdl/store"
)

// The traced run records spans entirely from bench/: nothing inside the
// program is instrumented yet. One root span per op at the workload's
// entry layer, then the ladder — the first ladderOps ops of caller 0's
// seeded stream replayed single-caller against the public entry point of
// every layer, innermost first, one child span per call carrying the op
// id. A layer's self time is its rung's median minus the rungs below it.

// rung is one layer entry point of the ladder.
type rung struct {
	Name   string   `json:"name"`
	Parent string   `json:"parent"` // the rung whose calls cause this one's
	Kinds  []string `json:"kinds"`
	// Batch > 1: each span covers Batch consecutive calls, because one
	// call is shorter than a clock read; MedianNs is still per call.
	Batch    int       `json:"batch"`
	MedianNs []float64 `json:"median_ns"` // per kind
	N        []int     `json:"n"`         // samples per kind

	idx     int // position in the trace file's rung table; 0 is the root
	samples [][]int64
	spans   []span
	diff    counters // the layer Stats() movement this rung caused
}

// counters is one snapshot of every public Stats() the stack exposes,
// summed over shards, plus the process's own.
type counters struct {
	DiskReads, DiskWrites, DiskBytes, Degraded int64
	Batches, BatchedOps, FlushDeadline         int64
	Rejected                                   int64
	Legs, Retries, Failures                    int64
	Mallocs                                    uint64
	GCPause                                    time.Duration
	CPU                                        time.Duration
}

func (st *stack) snapshot() counters {
	var c counters
	for _, sh := range st.shards {
		for _, d := range sh.st.Stats().Disks {
			c.DiskReads += d.Reads
			c.DiskWrites += d.Writes
			c.DiskBytes += d.ReadBytes + d.WriteBytes
			c.Degraded += d.Degraded
		}
		if sh.front != nil {
			fs := sh.front.Stats()
			c.Batches += fs.Batches
			c.BatchedOps += fs.BatchedOps
			c.FlushDeadline += fs.FlushDeadline
			c.Rejected += fs.Rejected
		}
	}
	if st.cluster != nil {
		for _, ss := range st.cluster.Stats() {
			c.Legs += ss.Ops
			c.Retries += ss.Retries
			c.Failures += ss.Failures
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.Mallocs = ms.Mallocs
	c.GCPause = time.Duration(ms.PauseTotalNs)
	c.CPU = cpuTime()
	return c
}

func (c counters) sub(p counters) counters {
	return counters{
		DiskReads: c.DiskReads - p.DiskReads, DiskWrites: c.DiskWrites - p.DiskWrites,
		DiskBytes: c.DiskBytes - p.DiskBytes, Degraded: c.Degraded - p.Degraded,
		Batches: c.Batches - p.Batches, BatchedOps: c.BatchedOps - p.BatchedOps,
		FlushDeadline: c.FlushDeadline - p.FlushDeadline, Rejected: c.Rejected - p.Rejected,
		Legs: c.Legs - p.Legs, Retries: c.Retries - p.Retries, Failures: c.Failures - p.Failures,
		Mallocs: c.Mallocs - p.Mallocs, GCPause: c.GCPause - p.GCPause, CPU: c.CPU - p.CPU,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderOp is one op of the replayed stream with its address resolved
// at every granularity the rungs need.
type ladderOp struct {
	seq   uint64
	kind  int
	off   int64 // byte offset in the workload's namespace
	unit  int   // 4 KiB unit in that namespace
	shard int
	local int // 4 KiB unit within the shard
}

type ladder struct {
	cfg    *config
	st     *stack
	m      *model
	ops    []ladderOp
	epoch  time.Time
	budget time.Duration // per rung
	rungs  []*rung
	// global[shard][local] is the namespace unit placed at a shard-local
	// unit: the inverse of the cluster map, for checking shard-level reads.
	global [][]int32

	// Filled by planRung: mean steps per compiled plan, and the median
	// over the sampled plans of a plan's backend and codec calls priced
	// at the inner rungs' medians.
	stepsPerOp float64
	belowStore [numKinds]float64

	attempted, failed int64
	firstErr          error
}

func newLadder(cfg *config, ld *load) *ladder {
	st := ld.st
	l := &ladder{cfg: cfg, st: st, m: ld.m, epoch: ld.epoch, budget: secondsToDuration(cfg.seconds / 30)}
	cm := st.cluster.Map()
	l.global = make([][]int32, len(st.shards))
	for s, sh := range st.shards {
		l.global[s] = make([]int32, sh.st.Capacity())
	}
	for u := int64(0); u < cm.Units(); u++ {
		s, local := cm.Locate(u)
		l.global[s][local] = int32(u)
	}
	gen := newGenerator(st.w, ld.lane, cfg.seed, 0)
	for i := 0; i < cfg.ladderOps; i++ {
		op := gen.Next()
		lo := ladderOp{seq: uint64(i), off: int64(op.Logical*st.w.Callers) * int64(st.w.OpBytes)}
		if op.Kind == sim.Write {
			lo.kind = kindWrite
		}
		lo.unit = int(lo.off / unitSize)
		s, local := cm.Locate(int64(lo.unit))
		lo.shard, lo.local = s, int(local)
		l.ops = append(l.ops, lo)
	}
	return l
}

func (l *ladder) newRung(name, parent string, batch int, kinds ...string) *rung {
	r := &rung{Name: name, Parent: parent, Kinds: kinds, Batch: batch, idx: len(l.rungs) + 1,
		samples: make([][]int64, len(kinds))}
	l.rungs = append(l.rungs, r)
	return r
}

func (l *ladder) record(r *rung, op *ladderOp, kind int, t0, t1 time.Time) {
	r.samples[kind] = append(r.samples[kind], int64(t1.Sub(t0))/int64(r.Batch))
	r.spans = append(r.spans, span{
		Op: op.seq, Kind: uint8(kind), Start: int64(t0.Sub(l.epoch)), End: int64(t1.Sub(l.epoch)),
	})
}

// done closes a rung: its per-kind medians and sample counts.
func (l *ladder) done(r *rung) {
	r.MedianNs = make([]float64, len(r.Kinds))
	r.N = make([]int, len(r.Kinds))
	for k, s := range r.samples {
		slices.Sort(s)
		r.N[k] = len(s)
		r.MedianNs[k] = float64(percentile(s, 50))
	}
}

// rung returns the finished rung of that name.
func (l *ladder) rung(name string) *rung {
	for _, r := range l.rungs {
		if r.Name == name {
			return r
		}
	}
	panic("bench: no ladder rung " + name)
}

func (l *ladder) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// replay runs one read/write rung: every op of the stream, until the
// rung's time budget runs out, as one timed call of size bytes. expect
// fills a buffer with what the model holds for the op's range at this
// rung. Writes store exactly that — the current version again — so the
// ladder leaves the arrays as the window left them and rungs can run in
// any order; reads are checked against it.
func (l *ladder) replay(name, parent string, size int,
	expect func(op *ladderOp, p []byte),
	call func(op *ladderOp, write bool, p []byte) error) *rung {
	r := l.newRung(name, parent, 1, kindName[:]...)
	buf, want := make([]byte, size), make([]byte, size)
	before := l.st.snapshot()
	deadline := time.Now().Add(l.budget)
	for i := range l.ops {
		op := &l.ops[i]
		write := op.kind == kindWrite
		if write {
			expect(op, buf)
		}
		t0 := time.Now()
		err := call(op, write, buf)
		t1 := time.Now()
		l.attempted++
		if err == nil && !write {
			if expect(op, want); !bytes.Equal(buf, want) {
				err = fmt.Errorf("content does not match the model")
			}
		}
		if err != nil {
			l.fail(fmt.Errorf("ladder %s: %s op %d: %w", name, kindName[op.kind], op.seq, err))
		}
		l.record(r, op, op.kind, t0, t1)
		if t1.After(deadline) {
			break
		}
	}
	r.diff = l.st.snapshot().sub(before)
	l.done(r)
	return r
}

// targetCall adapts a scenario.Target and an address choice to replay.
func targetCall(t scenario.Target, addr func(*ladderOp) int) func(*ladderOp, bool, []byte) error {
	return func(op *ladderOp, write bool, p []byte) error {
		if write {
			return t.Write(addr(op), p, false)
		}
		return t.Read(addr(op), p, false)
	}
}

// spanStart aligns a byte offset down to a span that fits below size.
func spanStart(off, size int64) int64 {
	return min(off/spanSize*spanSize, (size-spanSize)/spanSize*spanSize)
}

// run replays the stream against every layer, innermost first.
func (l *ladder) run() {
	st := l.st
	unitExpect := func(op *ladderOp, p []byte) { l.m.expect(p, int64(op.unit)*unitSize) }
	local := func(op *ladderOp) int { return op.local }

	l.codeRung()
	l.backendRung()
	l.planRung()
	shardTarget := func(mk func(*shard) scenario.Target) func(*ladderOp, bool, []byte) error {
		ts := make([]func(*ladderOp, bool, []byte) error, len(st.shards))
		for s, sh := range st.shards {
			ts[s] = targetCall(mk(sh), local)
		}
		return func(op *ladderOp, write bool, p []byte) error { return ts[op.shard](op, write, p) }
	}
	l.replay("store", "frontend", unitSize, unitExpect,
		shardTarget(func(sh *shard) scenario.Target { return &scenario.StoreTarget{S: sh.st} }))
	l.replay("frontend", "serve.unit", unitSize, unitExpect,
		shardTarget(func(sh *shard) scenario.Target { return &scenario.FrontendTarget{F: sh.front} }))
	l.replay("serve.unit", "cluster.unit", unitSize, unitExpect,
		shardTarget(func(sh *shard) scenario.Target { return &scenario.ClientTarget{C: sh.client} }))

	// A 64 KiB span of one shard's local byte space: its units come from
	// all over the namespace, so the expectation goes unit by unit.
	localSpan := func(op *ladderOp) int64 {
		return spanStart(int64(op.local)*unitSize, st.shards[op.shard].st.Size())
	}
	l.replay("serve.span", "cluster.span", spanSize,
		func(op *ladderOp, p []byte) {
			first := int(localSpan(op) / unitSize)
			for i := 0; i < spanSize/unitSize; i++ {
				l.m.expect(p[i*unitSize:(i+1)*unitSize], int64(l.global[op.shard][first+i])*unitSize)
			}
		},
		func(op *ladderOp, write bool, p []byte) error {
			c := st.shards[op.shard].client
			var n int
			var err error
			if write {
				n, err = c.WriteAt(p, localSpan(op))
			} else {
				n, err = c.ReadAt(p, localSpan(op))
			}
			if err == nil && n != len(p) {
				err = fmt.Errorf("short span: %d of %d bytes", n, len(p))
			}
			return err
		})

	l.replay("cluster.unit", "", unitSize, unitExpect,
		targetCall(scenario.NewClusterTarget(st.cluster, unitSize), func(op *ladderOp) int { return op.unit }))
	l.replay("cluster.span", "", spanSize,
		func(op *ladderOp, p []byte) { l.m.expect(p, spanStart(op.off, st.size)) },
		targetCall(scenario.NewClusterTarget(st.cluster, spanSize),
			func(op *ladderOp) int { return int(spanStart(op.off, st.size) / spanSize) }))
}

// Code rung kinds.
const (
	codeEncode = iota
	codeUpdate
	codeReconstruct
)

// codeRung times the workload's codec on 4 KiB shards at G17's stripe
// shape: encode every parity of a stripe, fold one data delta into every
// parity, and reconstruct one lost shard with as many shards missing as
// the workload loses disks. The kernels do the same work whatever the
// address, so a tenth of the stream is plenty.
func (l *ladder) codeRung() {
	r := l.newRung("code", "store", 1, "encode", "update", "reconstruct")
	c := code.Default(l.st.w.Parity)
	m := c.ParityShards()
	k := g17K - m
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, unitSize)
		l.m.expect(shards[i], int64(i)*unitSize)
	}
	delta, out := make([]byte, unitSize), make([]byte, unitSize)
	l.m.expect(delta, int64(k+m)*unitSize)
	missing := make([]int, max(1, len(l.st.w.RebuildDisks)))
	for i := range missing {
		missing[i] = i
	}
	coef := make([]byte, k+m)
	n := max(1, len(l.ops)/10)
	for i := range l.ops[:n] {
		op := &l.ops[i]
		t0 := time.Now()
		for j := 0; j < m; j++ {
			c.EncodeParity(j, shards[:k], shards[k+j])
		}
		t1 := time.Now()
		l.record(r, op, codeEncode, t0, t1)

		t0 = time.Now()
		for j := 0; j < m; j++ {
			c.UpdateParity(j, i%k, shards[k+j], delta)
		}
		t1 = time.Now()
		l.record(r, op, codeUpdate, t0, t1)
		for j := 0; j < m; j++ { // undo, so parity stays the encoding of the data
			c.UpdateParity(j, i%k, shards[k+j], delta)
		}

		t0 = time.Now()
		err := c.PlanReconstruct(k, missing, 0, coef)
		clear(out)
		for s, cf := range coef {
			if cf != 0 {
				code.MulAdd(out, shards[s], cf)
			}
		}
		t1 = time.Now()
		l.record(r, op, codeReconstruct, t0, t1)
		l.attempted++
		if err == nil && !bytes.Equal(out, shards[0]) {
			err = fmt.Errorf("reconstructed shard differs from the original")
		}
		if err != nil {
			l.fail(fmt.Errorf("ladder code: %w", err))
		}
	}
	l.done(r)
}

// backendRung times 4 KiB ReadAt/WriteAt on the disk each op's unit
// lives on (the next healthy disk when that one is down). A write stores
// back the bytes just read.
func (l *ladder) backendRung() {
	at := func(op *ladderOp) (b store.Backend, off int64, err error) {
		s := l.st.shards[op.shard].st
		u, err := s.Mapper().Map(op.local)
		if err != nil {
			return nil, 0, err
		}
		d := u.Disk
		for inList(s.FailedDisks(), d) {
			d = (d + 1) % g17V
		}
		return s.DiskBackend(d), int64(u.Offset) * unitSize, nil
	}
	l.replay("backend", "store", unitSize,
		func(op *ladderOp, p []byte) {
			// A failure here repeats in the timed call, which reports it.
			if b, off, err := at(op); err == nil {
				_, _ = b.ReadAt(p, off)
			}
		},
		func(op *ladderOp, write bool, p []byte) error {
			b, off, err := at(op)
			if err != nil {
				return err
			}
			if write {
				_, err = b.WriteAt(p, off)
			} else {
				_, err = b.ReadAt(p, off)
			}
			return err
		})
}

// planBatch is how many compilations one plan-rung span covers.
const planBatch = 32

// planRung times plan compilation against the shard's current failure
// set. It also prices each compiled plan from the rungs below — its
// reads and writes at the backend medians plus the codec call its kind
// implies — which is the "below the store" cost the table subtracts.
func (l *ladder) planRung() {
	codeR, backend := l.rung("code"), l.rung("backend")
	enc, upd, rec := codeR.MedianNs[codeEncode], codeR.MedianNs[codeUpdate], codeR.MedianNs[codeReconstruct]
	br, bw := backend.MedianNs[kindRead], backend.MedianNs[kindWrite]

	r := l.newRung("plan", "store", planBatch, kindName[:]...)
	planners := make([]*plan.Planner, len(l.st.shards))
	failed := make([][]int, len(l.st.shards))
	for s, sh := range l.st.shards {
		planners[s] = plan.NewPlanner(sh.st.Mapper())
		failed[s] = sh.st.FailedDisks()
	}
	var p plan.Plan
	var steps, plans int
	var below [numKinds][]float64
	// Batches hold one kind each so reads and writes get their own medians.
	for kind := 0; kind < numKinds; kind++ {
		var batch []*ladderOp
		for i := range l.ops {
			if l.ops[i].kind == kind {
				batch = append(batch, &l.ops[i])
			}
			if len(batch) < planBatch {
				continue
			}
			t0 := time.Now()
			for _, op := range batch {
				var err error
				if kind == kindWrite {
					err = planners[op.shard].WriteM(op.local, failed[op.shard], &p)
				} else {
					err = planners[op.shard].ReadM(op.local, failed[op.shard], &p)
				}
				if err != nil {
					l.fail(fmt.Errorf("ladder plan: %w", err))
				}
				steps += len(p.Steps)
			}
			t1 := time.Now()
			l.attempted += planBatch
			plans += planBatch
			l.record(r, batch[0], kind, t0, t1)
			// Price the last plan of the batch: the stream is random, so
			// that samples the plan kinds fairly.
			cost := float64(p.Reads())*br + float64(p.Writes())*bw
			switch p.Kind {
			case plan.DegradedRead:
				cost += rec
			case plan.SmallWrite:
				cost += upd
			case plan.ReconstructWrite, plan.FullStripeWrite:
				cost += enc
			case plan.DegradedWrite:
				cost += rec + upd
			}
			below[kind] = append(below[kind], cost)
			batch = batch[:0]
		}
	}
	l.done(r)
	l.stepsPerOp = ratio(float64(steps), float64(plans))
	for k := range below {
		l.belowStore[k] = median(below[k])
	}
}
