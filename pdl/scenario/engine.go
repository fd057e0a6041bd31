package scenario

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/pdl/obs"
	"repro/pdl/sim"
)

// ErrSLO reports that a scenario ran to completion but violated at
// least one declared SLO clause; the returned Report lists them. It
// supports errors.Is.
var ErrSLO = errors.New("scenario: SLO violated")

// ErrVerify reports that verify mode caught a data mismatch: a read
// returned bytes other than the last modeled write, or the final sweep
// did. It supports errors.Is.
var ErrVerify = errors.New("scenario: data verification failed")

// eventPoll is how often the coordinator re-checks an at_ops trigger.
// It bounds trigger latency, not determinism: events fire in schedule
// order regardless.
const eventPoll = 200 * time.Microsecond

// Run executes the scenario against the target and judges the declared
// SLOs. The report is returned even on error: alongside ErrSLO it
// carries the violated clauses, alongside ErrVerify the mismatches.
// Any other error means the scenario could not run at all.
func Run(sc *Scenario, tgt Target) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if tgt.Capacity() < 1 || tgt.UnitSize() < 1 {
		return nil, fmt.Errorf("scenario: target %s has nothing to address: %d units of %d B (op size beyond the namespace?)",
			tgt.Name(), tgt.Capacity(), tgt.UnitSize())
	}
	e := &engine{sc: sc, tgt: tgt, p99: make(map[string]time.Duration)}
	if sc.Verify {
		if err := e.initVerify(); err != nil {
			return nil, err
		}
	}
	return e.run()
}

// engine is one scenario execution: the coordinator goroutine (run)
// fires events strictly in schedule order while worker goroutines
// drive the target, so two runs of one scenario produce identical
// event orderings by construction.
type engine struct {
	sc  *Scenario
	tgt Target

	// Cumulative latency histograms; per-phase windows are carved out
	// with HistSnapshot.Sub at phase boundaries.
	fgHist, bgHist obs.Hist

	// p99 remembers each phase's foreground p99 for ratio clauses.
	p99 map[string]time.Duration

	// Background workload machinery.
	bgGate gate
	bgStop chan struct{}
	bgWG   sync.WaitGroup
	bgOps  atomic.Int64
	bgErrs atomic.Int64

	// Verify-mode state (nil lanes when off).
	lanes     []laneModel
	verifyMu  sync.Mutex
	verifyBad []string
}

// laneModel is one worker lane's view of the data: the payload key of
// the last write to each logical unit the lane owns. Lanes partition
// the address space (logical ≡ lane mod len(lanes)), so no two workers
// ever race on a unit and reads are always checkable.
type laneModel struct {
	idx  int
	keys map[int]uint64
	seq  uint64
}

// initVerify sets up lane-striped ownership. Verify mode needs a
// constant worker count across phases — the lane striping is the
// correctness argument, and it cannot survive the partition changing
// mid-run.
func (e *engine) initVerify() error {
	w := e.sc.Phases[0].Load.Workers
	for i := range e.sc.Phases {
		if e.sc.Phases[i].Load.Workers != w {
			return fmt.Errorf("scenario: verify mode needs a constant worker count; phase %q has %d, phase %q has %d",
				e.sc.Phases[0].Name, w, e.sc.Phases[i].Name, e.sc.Phases[i].Load.Workers)
		}
	}
	lanes := w
	if e.sc.Background != nil {
		lanes += e.sc.Background.Workers
	}
	if e.tgt.Capacity() < lanes {
		return fmt.Errorf("scenario: verify mode: capacity %d below %d lanes", e.tgt.Capacity(), lanes)
	}
	e.lanes = make([]laneModel, lanes)
	for i := range e.lanes {
		e.lanes[i].idx = i
		e.lanes[i].keys = make(map[int]uint64)
	}
	return nil
}

func (e *engine) run() (*Report, error) {
	rep := &Report{Scenario: e.sc.Name, Target: e.tgt.Name(), Seed: e.sc.Seed, UnitSize: e.tgt.UnitSize()}
	e.startBackground()
	for i := range e.sc.Phases {
		rep.Phases = append(rep.Phases, e.runPhase(i))
	}
	e.stopBackground()
	rep.BackgroundOps = e.bgOps.Load()
	rep.BackgroundErrors = e.bgErrs.Load()
	if e.sc.Verify {
		e.sweep()
	}
	for i := range rep.Phases {
		rep.Violations = append(rep.Violations, rep.Phases[i].Violations...)
	}
	if len(e.verifyBad) > 0 {
		rep.Violations = append(rep.Violations, e.verifyBad...)
		return rep, ErrVerify
	}
	if len(rep.Violations) > 0 {
		return rep, ErrSLO
	}
	return rep, nil
}

// runPhase drives one phase: snapshot the histograms, launch the
// workers, fire the events in order, wait for the load to finish, and
// judge the latency window against the SLO.
func (e *engine) runPhase(idx int) PhaseReport {
	ph := &e.sc.Phases[idx]
	rep := PhaseReport{Name: ph.Name}
	var fgBefore, bgBefore obs.HistSnapshot
	e.fgHist.Load(&fgBefore)
	e.bgHist.Load(&bgBefore)

	start := time.Now()
	var (
		claimed, done, errs atomic.Int64
		alive               atomic.Int64
		wg                  sync.WaitGroup
	)
	alive.Store(int64(ph.Load.Workers))
	for w := 0; w < ph.Load.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer alive.Add(-1)
			e.worker(idx, ph, w, start, &claimed, &done, &errs)
		}(w)
	}

	for j := range ph.Events {
		ev := &ph.Events[j]
		for done.Load() < ev.AtOps && alive.Load() > 0 {
			time.Sleep(eventPoll)
		}
		if ev.At > 0 {
			if d := time.Until(start.Add(ev.At)); d > 0 {
				time.Sleep(d)
			}
		}
		rec := e.fire(*ev)
		rep.Events = append(rep.Events, rec)
		if rec.Err != "" {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s/%s: event %d (%s) failed: %s", e.tgt.Name(), ph.Name, j, ev.Action, rec.Err))
		}
	}
	wg.Wait()

	rep.Ops = done.Load()
	rep.Errors = errs.Load()
	rep.Took = time.Since(start)
	var fgAfter, bgAfter obs.HistSnapshot
	e.fgHist.Load(&fgAfter)
	e.bgHist.Load(&bgAfter)
	fgWin := fgAfter.Sub(&fgBefore)
	bgWin := bgAfter.Sub(&bgBefore)
	rep.Foreground = fgWin.Summary()
	rep.Background = bgWin.Summary()
	e.p99[ph.Name] = rep.Foreground.P99
	e.judge(ph, &rep)
	return rep
}

// worker is one foreground submitter: claim a slot in the phase budget,
// draw an op from the seeded generator, drive the target, record the
// latency. A worker exits on its first op error — the rest of the pool
// absorbs the remaining budget, so a phase never hangs on a sick
// target.
func (e *engine) worker(phaseIdx int, ph *Phase, w int, start time.Time, claimed, done, errs *atomic.Int64) {
	gen := e.loadGen(&ph.Load, phaseSeed(e.sc.Seed, phaseIdx, w))
	lane := e.lane(w)
	buf := make([]byte, e.tgt.UnitSize())
	for {
		if ph.Load.Ops > 0 && claimed.Add(1) > ph.Load.Ops {
			return
		}
		if ph.Load.Duration > 0 && time.Since(start) >= ph.Load.Duration {
			return
		}
		if err := e.step(gen, lane, buf, false); err != nil {
			done.Add(1)
			errs.Add(1)
			return
		}
		done.Add(1)
	}
}

// step executes one generated op against the target, with verify-mode
// modeling and checking when a lane is assigned.
func (e *engine) step(gen sim.Generator, lane *laneModel, buf []byte, background bool) error {
	op := gen.Next()
	logical := op.Logical
	if lane != nil {
		logical = e.laneLogical(lane, op.Logical)
	}
	var key uint64
	if op.Kind == sim.Write {
		if lane != nil {
			lane.seq++
			key = payloadKey(e.sc.Seed, logical, lane.seq)
		} else {
			key = payloadKey(e.sc.Seed, logical, uint64(op.Logical))
		}
		fill(buf, key)
	}
	t0 := time.Now()
	var err error
	if op.Kind == sim.Write {
		err = e.tgt.Write(logical, buf, background)
	} else {
		err = e.tgt.Read(logical, buf, background)
	}
	d := time.Since(t0)
	if err != nil {
		if lane != nil && op.Kind == sim.Write {
			// A failed write may still have partially landed (a cluster
			// write errors after some shards accepted their pieces). The
			// unit's contents are now unknowable; drop it from the model
			// so neither later reads nor the sweep assert on it.
			delete(lane.keys, logical)
		}
		return err
	}
	if background {
		e.bgHist.Record(d)
	} else {
		e.fgHist.Record(d)
	}
	if lane != nil {
		if op.Kind == sim.Write {
			lane.keys[logical] = key
		} else if want, ok := lane.keys[logical]; ok {
			if !check(buf, want) {
				e.verifyFail(fmt.Sprintf("%s: unit %d: read diverges from last modeled write", e.tgt.Name(), logical))
				return ErrVerify
			}
		}
	}
	return nil
}

// lane returns fg worker w's lane model, or nil when verify is off.
func (e *engine) lane(w int) *laneModel {
	if e.lanes == nil {
		return nil
	}
	return &e.lanes[w]
}

// laneLogical maps a generated address into the lane's stripe of the
// namespace: slot s of lane l is logical l + s*lanes.
func (e *engine) laneLogical(lane *laneModel, generated int) int {
	n := len(e.lanes)
	slots := e.tgt.Capacity() / n
	return lane.idx + (generated%slots)*n
}

// loadGen builds the seeded generator a load asks for.
func (e *engine) loadGen(l *Load, seed uint64) sim.Generator {
	n := e.tgt.Capacity()
	if e.lanes != nil {
		// Verify mode generates slots within a lane's stripe.
		n = e.tgt.Capacity() / len(e.lanes)
	}
	if l.ZipfTheta > 0 {
		return sim.NewZipf(n, l.ZipfTheta, l.WriteFrac, seed)
	}
	return sim.NewUniform(n, l.WriteFrac, seed)
}

// fire executes one scheduled event against the target.
func (e *engine) fire(ev Event) EventRecord {
	rec := EventRecord{Action: ev.Action, Shard: ev.Shard, Disk: ev.Disk}
	t0 := time.Now()
	err := e.dispatch(ev)
	rec.Took = time.Since(t0)
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

func (e *engine) dispatch(ev Event) error {
	switch ev.Action {
	case ActFail:
		fi, ok := e.tgt.(FaultInjector)
		if !ok {
			return fmt.Errorf("target %s cannot inject disk faults", e.tgt.Name())
		}
		return fi.FailDisk(ev.Shard, ev.Disk)
	case ActRebuild:
		fi, ok := e.tgt.(FaultInjector)
		if !ok {
			return fmt.Errorf("target %s cannot rebuild", e.tgt.Name())
		}
		return fi.RebuildDisk(ev.Shard)
	case ActKill:
		sc, ok := e.tgt.(ShardController)
		if !ok {
			return fmt.Errorf("target %s cannot kill shards", e.tgt.Name())
		}
		return sc.KillShard(ev.Shard)
	case ActRestart:
		sc, ok := e.tgt.(ShardController)
		if !ok {
			return fmt.Errorf("target %s cannot restart shards", e.tgt.Name())
		}
		return sc.RestartShard(ev.Shard)
	case ActPauseBackground:
		e.bgGate.pause()
		return nil
	case ActResumeBackground:
		e.bgGate.resume()
		return nil
	}
	return fmt.Errorf("unknown action %q", ev.Action)
}

// judge checks the phase's latency window against its SLO.
func (e *engine) judge(ph *Phase, rep *PhaseReport) {
	s := ph.SLO
	if s == nil {
		return
	}
	bad := func(format string, args ...any) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s/%s: ", e.tgt.Name(), ph.Name)+fmt.Sprintf(format, args...))
	}
	p99 := rep.Foreground.P99
	if s.MaxP99 > 0 && p99 > s.MaxP99 {
		bad("p99 %v exceeds %v", p99, s.MaxP99)
	}
	if s.MaxP99Ratio > 0 {
		base := e.p99[s.P99RatioTo]
		switch {
		case base == 0:
			bad("reference phase %q recorded no latency to compare against", s.P99RatioTo)
		case float64(p99) > s.MaxP99Ratio*float64(base) && p99 > s.P99Floor:
			bad("p99 %v is %.2fx of phase %q p99 %v, over the %.2fx budget",
				p99, float64(p99)/float64(base), s.P99RatioTo, base, s.MaxP99Ratio)
		}
	}
	if s.MaxRebuild > 0 {
		for i := range rep.Events {
			ev := &rep.Events[i]
			if ev.Action == ActRebuild && ev.Err == "" && ev.Took > s.MaxRebuild {
				bad("rebuild took %v, over the %v budget", ev.Took, s.MaxRebuild)
			}
		}
	}
	if s.MaxErrors >= 0 && rep.Errors > s.MaxErrors {
		bad("%d op errors, over the %d allowed", rep.Errors, s.MaxErrors)
	}
	if s.RequireHealthy {
		hr, ok := e.tgt.(HealthReporter)
		switch {
		case !ok:
			bad("target cannot report disk health for require_healthy")
		default:
			n, err := hr.FailedDisks()
			if err != nil {
				bad("health check failed: %v", err)
			} else if n != 0 {
				bad("%d disks still failed at phase end", n)
			}
		}
	}
}

// startBackground launches the scenario-wide background workload.
func (e *engine) startBackground() {
	e.bgGate.init()
	e.bgStop = make(chan struct{})
	if e.sc.Background == nil {
		return
	}
	fgLanes := 0
	if e.lanes != nil {
		fgLanes = e.sc.Phases[0].Load.Workers
	}
	for w := 0; w < e.sc.Background.Workers; w++ {
		e.bgWG.Add(1)
		go func(w int) {
			defer e.bgWG.Done()
			gen := e.loadGen(e.sc.Background, phaseSeed(e.sc.Seed, -1, w))
			var lane *laneModel
			if e.lanes != nil {
				lane = &e.lanes[fgLanes+w]
			}
			buf := make([]byte, e.tgt.UnitSize())
			for {
				select {
				case <-e.bgStop:
					return
				default:
				}
				if !e.bgGate.wait(e.bgStop) {
					return
				}
				if err := e.step(gen, lane, buf, true); err != nil {
					e.bgErrs.Add(1)
					// A sick window (mid-kill) must not spin: back off
					// briefly and retry; the gate and stop channel still
					// govern the loop.
					time.Sleep(time.Millisecond)
					continue
				}
				e.bgOps.Add(1)
			}
		}(w)
	}
}

// stopBackground resumes a paused gate (so no worker is stranded) and
// stops the background pool.
func (e *engine) stopBackground() {
	e.bgGate.resume()
	close(e.bgStop)
	e.bgWG.Wait()
}

// sweep is verify mode's final pass: re-read every unit any lane ever
// wrote and compare it to the last modeled payload.
func (e *engine) sweep() {
	buf := make([]byte, e.tgt.UnitSize())
	for l := range e.lanes {
		for logical, key := range e.lanes[l].keys {
			if err := e.tgt.Read(logical, buf, false); err != nil {
				e.verifyFail(fmt.Sprintf("%s: sweep: unit %d: %v", e.tgt.Name(), logical, err))
				continue
			}
			if !check(buf, key) {
				e.verifyFail(fmt.Sprintf("%s: sweep: unit %d diverges from last modeled write", e.tgt.Name(), logical))
			}
		}
	}
}

func (e *engine) verifyFail(msg string) {
	e.verifyMu.Lock()
	defer e.verifyMu.Unlock()
	// Cap the list; one corruption usually cascades.
	if len(e.verifyBad) < 16 {
		e.verifyBad = append(e.verifyBad, msg)
	}
}

// gate is the pause/resume valve for background workers: open (closed
// channel) by default, swapped for a fresh channel while paused.
type gate struct {
	mu     sync.Mutex
	ch     chan struct{}
	paused bool
}

func (g *gate) init() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch = closedChan()
	g.paused = false
}

func (g *gate) pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.paused {
		g.paused = true
		g.ch = make(chan struct{})
	}
}

func (g *gate) resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paused {
		g.paused = false
		close(g.ch)
	}
}

// wait blocks while the gate is paused; false means stop closed first.
func (g *gate) wait(stop <-chan struct{}) bool {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-stop:
		return false
	}
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// phaseSeed derives a worker's generator seed: one scenario seed fans
// out to distinct, reproducible per-worker streams.
func phaseSeed(seed uint64, phase, worker int) uint64 {
	s := seed ^ 0x9E3779B97F4A7C15
	s ^= uint64(phase+2) * 0xBF58476D1CE4E5B9
	s ^= uint64(worker+1) * 0x94D049BB133111EB
	return s | 1
}

// payloadKey derives the deterministic payload identity of one write.
func payloadKey(seed uint64, logical int, seq uint64) uint64 {
	s := seed ^ uint64(logical)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	return s | 1
}

// fill writes key's pseudorandom payload into buf.
func fill(buf []byte, key uint64) {
	r := sim.NewRNG(key)
	for i := 0; i < len(buf); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
}

// check reports whether buf holds key's payload.
func check(buf []byte, key uint64) bool {
	r := sim.NewRNG(key)
	for i := 0; i < len(buf); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(buf); j++ {
			if buf[i+j] != byte(v>>(8*j)) {
				return false
			}
		}
	}
	return true
}
