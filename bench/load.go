package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/sim"
)

// model is the benchmark's own record of what the array must hold: one
// version per op-unit (a span for the cluster workload, a stripe unit
// elsewhere), every unit at version 1 after the fill. The payload of
// (seed, unit, version) is a pure function, so any byte range can be
// regenerated and compared without storing a second copy of the data.
//
// During a window each caller owns a lane — the op-units congruent to its
// id modulo the caller count — and only the owner touches a unit's
// version, so the model needs no lock.
type model struct {
	seed    uint64
	opBytes int
	ver     []uint32 // ver[u] + 1 is op-unit u's version; nil = all at 1
}

const payloadStep = 0x9E3779B97F4A7C15

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (m *model) key(u int) uint64 {
	v := uint64(1)
	if m.ver != nil {
		v += uint64(m.ver[u])
	}
	return mix(m.seed ^ mix(uint64(u)<<20^v))
}

// expect fills p with the bytes the model holds for the range starting
// at byte offset off. off and len(p) must be multiples of 8.
func (m *model) expect(p []byte, off int64) {
	for len(p) > 0 {
		u := int(off / int64(m.opBytes))
		in := int(off % int64(m.opBytes))
		n := min(len(p), m.opBytes-in)
		w := m.key(u) + uint64(in/8)*payloadStep
		for i := 0; i < n; i += 8 {
			binary.LittleEndian.PutUint64(p[i:], w)
			w += payloadStep
		}
		p, off = p[n:], off+int64(n)
	}
}

// check reports whether p holds exactly what the model expects at off.
func (m *model) check(p []byte, off int64) bool {
	for len(p) > 0 {
		u := int(off / int64(m.opBytes))
		in := int(off % int64(m.opBytes))
		n := min(len(p), m.opBytes-in)
		w := m.key(u) + uint64(in/8)*payloadStep
		for i := 0; i < n; i += 8 {
			if binary.LittleEndian.Uint64(p[i:]) != w {
				return false
			}
			w += payloadStep
		}
		p, off = p[n:], off+int64(n)
	}
	return true
}

// span is one recorded call: the root span of an op at the workload's
// entry layer, or a ladder rung's child span of the same op.
type span struct {
	Op         uint64 // caller<<40 | sequence number in that caller's stream
	Kind       uint8
	Start, End int64 // ns since the run's epoch
}

// caller is one closed-loop client.
type caller struct {
	id, lanes int
	gen       sim.Generator
	seq       uint64
	attempted int64
	failed    int64
	firstErr  error

	rec   *recorder
	spans []span // root spans, traced windows only

	// Async callers (Depth > 1) keep Depth ops outstanding.
	slots []*slot
	done  chan *slot
	busy  int
}

// slot is one outstanding async op.
type slot struct {
	op    serve.Op
	unit  int
	seq   uint64
	t0    time.Time
	end   time.Time
	err   error
	inUse bool
	cb    func(error)
}

// load drives one stack with the workload's traffic.
type load struct {
	w       *workload
	st      *stack
	m       *model
	target  scenario.Target // entry layer for sync callers
	callers []*caller
	lane    int       // op-units per lane
	epoch   time.Time // zero of the root spans' clock
}

// callerSeed derives caller c's generator seed from the run seed.
func callerSeed(seed uint64, c int) uint64 { return mix(seed + uint64(c)*payloadStep) }

// newGenerator returns caller c's op stream: lane-relative op-unit
// indices from the pdl/sim generators.
func newGenerator(w *workload, lane int, seed uint64, c int) sim.Generator {
	if w.Zipf > 0 {
		return sim.NewZipf(lane, w.Zipf, w.WriteFrac, callerSeed(seed, c))
	}
	return sim.NewUniform(lane, w.WriteFrac, callerSeed(seed, c))
}

func newLoad(cfg *config, st *stack) *load {
	w := st.w
	units := int(st.size / int64(w.OpBytes))
	ld := &load{
		w: w, st: st,
		m:    &model{seed: cfg.seed, opBytes: w.OpBytes, ver: make([]uint32, units)},
		lane: units / w.Callers,
	}
	sh := st.shards[0]
	switch w.Entry {
	case entryCluster:
		ld.target = scenario.NewClusterTarget(st.cluster, int64(w.OpBytes))
	case entryServe:
		ld.target = &scenario.ClientTarget{C: sh.client}
	case entryFrontend:
		ld.target = &scenario.FrontendTarget{F: sh.front}
	case entryStore:
		ld.target = &scenario.StoreTarget{S: sh.st}
	}
	for c := 0; c < w.Callers; c++ {
		cl := &caller{id: c, lanes: w.Callers, gen: newGenerator(w, ld.lane, cfg.seed, c)}
		if w.Depth > 1 {
			cl.done = make(chan *slot, w.Depth) // one send per slot, never blocks
			for i := 0; i < w.Depth; i++ {
				s := &slot{op: serve.Op{Buf: make([]byte, w.OpBytes)}}
				s.cb = func(err error) {
					s.end, s.err = time.Now(), err
					cl.done <- s
				}
				cl.slots = append(cl.slots, s)
			}
		}
		ld.callers = append(ld.callers, cl)
	}
	return ld
}

// run drives every caller for d. With nSlices > 0 the ops are timed into
// fresh recorders of that many slices, returned one per caller; trace
// additionally keeps a root span per op.
func (ld *load) run(d time.Duration, nSlices int, trace bool) []*recorder {
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range ld.callers {
		c.rec = nil
		if nSlices > 0 {
			c.rec = newRecorder(start, d, nSlices)
		}
		if trace && c.spans == nil {
			c.spans = make([]span, 0, maxRootSpans)
		}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			if ld.w.Depth > 1 {
				ld.asyncCaller(c, until, trace)
			} else {
				ld.syncCaller(c, until, trace)
			}
		}(c)
	}
	wg.Wait()
	if nSlices == 0 {
		return nil
	}
	recs := make([]*recorder, len(ld.callers))
	for i, c := range ld.callers {
		recs[i] = c.rec
	}
	return recs
}

// maxRootSpans bounds one caller's root spans in a traced window; ops
// past it are still timed, just not kept as spans.
const maxRootSpans = 1 << 18

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// finish accounts one completed op: the error or content check, the
// latency sample, and the root span.
func (c *caller) finish(ld *load, kind, unit int, seq uint64, buf []byte, t0, t1 time.Time, err error, trace bool) {
	c.attempted++
	switch {
	case err != nil:
		c.fail(fmt.Errorf("%s op-unit %d: %w", kindName[kind], unit, err))
	case kind == kindRead && !ld.m.check(buf, int64(unit)*int64(ld.w.OpBytes)):
		c.fail(fmt.Errorf("read op-unit %d: content does not match the model (version %d)", unit, ld.m.ver[unit]+1))
	}
	if c.rec != nil {
		c.rec.add(kind, t1, int64(t1.Sub(t0)), len(buf))
	}
	if trace && len(c.spans) < cap(c.spans) {
		c.spans = append(c.spans, span{
			Op: uint64(c.id)<<40 | seq, Kind: uint8(kind),
			Start: int64(t0.Sub(ld.epoch)), End: int64(t1.Sub(ld.epoch)),
		})
	}
}

// next draws the caller's next op: the op kind and the op-unit in the
// caller's lane.
func (c *caller) next() (kind, unit int, seq uint64) {
	op := c.gen.Next()
	kind = kindRead
	if op.Kind == sim.Write {
		kind = kindWrite
	}
	seq = c.seq
	c.seq++
	return kind, op.Logical*c.lanes + c.id, seq
}

// syncCaller issues one op at a time against the entry layer's
// scenario.Target until the deadline passes.
func (ld *load) syncCaller(c *caller, until time.Time, trace bool) {
	buf := make([]byte, ld.w.OpBytes)
	for {
		kind, unit, seq := c.next()
		var err error
		var t0 time.Time
		if kind == kindWrite {
			ld.m.ver[unit]++
			ld.m.expect(buf, int64(unit)*int64(ld.w.OpBytes))
			t0 = time.Now()
			err = ld.target.Write(unit, buf, false)
		} else {
			t0 = time.Now()
			err = ld.target.Read(unit, buf, false)
		}
		t1 := time.Now()
		c.finish(ld, kind, unit, seq, buf, t0, t1, err, trace)
		if !t1.Before(until) {
			return
		}
	}
}

// asyncCaller keeps up to Depth ops outstanding through Frontend.Go.
// An op on a unit that already has an op in flight waits for it unless
// both are reads, so the model stays exact and the op stream is the
// seeded stream in order whatever the completion timing.
func (ld *load) asyncCaller(c *caller, until time.Time, trace bool) {
	front := ld.st.shards[0].front
	ctx := context.Background()
	for time.Now().Before(until) {
		kind, unit, seq := c.next()
		for c.busy == len(c.slots) || c.conflicts(unit, kind == kindWrite) {
			c.complete(ld, <-c.done, trace)
		}
		var s *slot
		for _, s = range c.slots {
			if !s.inUse {
				break
			}
		}
		s.inUse, s.unit, s.seq = true, unit, seq
		s.op.Kind, s.op.Logical = serve.Read, unit
		if kind == kindWrite {
			s.op.Kind = serve.Write
			ld.m.ver[unit]++
			ld.m.expect(s.op.Buf, int64(unit)*int64(ld.w.OpBytes))
		}
		c.busy++
		s.t0 = time.Now()
		if err := front.Go(ctx, s.op, s.cb); err != nil {
			s.end, s.err = time.Now(), err
			c.complete(ld, s, trace)
		}
	}
	for c.busy > 0 {
		c.complete(ld, <-c.done, trace)
	}
}

func (c *caller) conflicts(unit int, write bool) bool {
	for _, s := range c.slots {
		if s.inUse && s.unit == unit && (write || s.op.Kind == serve.Write) {
			return true
		}
	}
	return false
}

func (c *caller) complete(ld *load, s *slot, trace bool) {
	kind := kindRead
	if s.op.Kind == serve.Write {
		kind = kindWrite
	}
	c.finish(ld, kind, s.unit, s.seq, s.op.Buf, s.t0, s.end, s.err, trace)
	s.inUse = false
	c.busy--
}

// totals sums the callers' op accounting.
func (ld *load) totals() (attempted, failed int64, firstErr error) {
	for _, c := range ld.callers {
		attempted += c.attempted
		failed += c.failed
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	return
}

// operate is the operator loop of the rebuild workload: nCycles equal
// cycles across the window, each {fail the workload's RebuildDisks over
// TCP, hold degraded for a third of the cycle, Client.Rebuild() once per
// disk}, the rest of the cycle healthy. Cycles of fixed length keep the
// degraded, rebuilding and healthy shares of every window the same, so
// foreground percentiles compare across runs. It returns the wall time
// of each cycle's rebuilds.
func (ld *load) operate(start time.Time, window time.Duration, nCycles int) ([]float64, error) {
	admin, err := serve.Dial(ld.st.shards[0].addr, serve.WithConns(1))
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	cycle := window / time.Duration(nCycles)
	var rebuilds []float64
	for i := 0; i < nCycles; i++ {
		t := start.Add(time.Duration(i) * cycle)
		time.Sleep(time.Until(t))
		for _, d := range ld.w.RebuildDisks {
			if err := admin.Fail(d); err != nil {
				return rebuilds, fmt.Errorf("operator: fail disk %d: %w", d, err)
			}
		}
		time.Sleep(time.Until(t.Add(cycle / 3)))
		r0 := time.Now()
		for range ld.w.RebuildDisks {
			if err := admin.Rebuild(); err != nil {
				return rebuilds, fmt.Errorf("operator: rebuild: %w", err)
			}
		}
		rebuilds = append(rebuilds, time.Since(r0).Seconds())
	}
	return rebuilds, nil
}
