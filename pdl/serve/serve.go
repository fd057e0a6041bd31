// Package serve is the network-facing front end of the parity-declustered
// serving stack: a Frontend turns many independent client requests into
// efficient batched array I/O against a pdl/store Store, and Server/Client
// carry those requests over TCP with a small length-prefixed protocol
// (see the wire subpackage).
//
// The Frontend is a bounded submission queue drained by a pool of
// workers, each forming and executing its own batch: requests accumulate
// until the batch is full (flush-on-full) or a deadline expires
// (flush-on-deadline), then execute as one store.ReadVec or
// store.WriteVec pass — one lock acquisition per touched stripe, and,
// when a stripe's worth of small writes coalesces, a single Condition 5
// full-stripe write instead of N read-modify-writes. Admission applies
// backpressure (a full queue blocks, honoring context cancellation) and
// two priority classes: Foreground requests always dispatch before
// Background ones, so rebuild or scrub traffic is throttled while
// clients are active.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pdl/obs"
	"repro/pdl/sim"
	"repro/pdl/store"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("serve: frontend closed")

// Class is a request priority class.
type Class uint8

const (
	// Foreground is client traffic: always dispatched first.
	Foreground Class = iota

	// Background is maintenance traffic (rebuild reads, scrubs): it is
	// admitted through its own queue and dispatched only when no
	// foreground request is waiting.
	Background
)

// Kind distinguishes the two request kinds.
type Kind uint8

const (
	// Read fills Op.Buf with its logical units' payloads.
	Read Kind = iota

	// Write stores Op.Buf as its logical units' payloads.
	Write
)

// Op is one request submitted to a Frontend: a run of consecutive bytes
// of the logical space.
type Op struct {
	// Kind selects read or write.
	Kind Kind

	// Class is the priority class (zero value: Foreground).
	Class Class

	// Logical is the data unit holding the run's first byte, and Within
	// (in [0, UnitSize)) that byte's offset in it: the zero value starts
	// the run at the unit's first byte.
	Logical, Within int

	// Buf is the payload, len(Buf) ≥ 1 bytes from there on: the
	// destination for reads, the source for writes. The caller must not
	// touch it until the request completes.
	Buf []byte
}

// Config tunes a Frontend. The zero value selects the defaults.
type Config struct {
	// QueueDepth bounds each class's submission queue and caps the batch
	// size, in requests of any length: at most QueueDepth requests
	// coalesce into one store pass, and a class with QueueDepth requests
	// waiting blocks further admissions (backpressure). Default 64.
	QueueDepth int

	// FlushDelay is how long an open batch waits for more requests before
	// flushing (flush-on-deadline). Negative means flush as soon as the
	// queues are momentarily empty — lowest latency, smallest batches.
	// Zero selects the default, 100µs. (Sub-millisecond deadlines are
	// limited by timer wakeup granularity; sustained load flushes on full
	// instead and never waits for the timer.)
	FlushDelay time.Duration

	// Workers is the number of worker goroutines. Each takes requests off
	// the queues, forms its own batch and executes it, so batches on
	// distinct stripes execute in parallel under the store's striped
	// locks. With FlushDelay > 0 the workers take turns forming, so one
	// batch is open at a time; with FlushDelay < 0 they form
	// concurrently. Default GOMAXPROCS.
	Workers int
}

// DefaultQueueDepth is the submission-queue bound when Config.QueueDepth
// is zero.
const DefaultQueueDepth = 64

// DefaultFlushDelay is the batch deadline when Config.FlushDelay is zero.
const DefaultFlushDelay = 100 * time.Microsecond

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.FlushDelay == 0 {
		out.FlushDelay = DefaultFlushDelay
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

// Stats is a point-in-time snapshot of a Frontend's counters.
type Stats struct {
	// Submitted counts admitted requests; Background of them arrived on
	// the background queue.
	Submitted, Background int64

	// Completed counts finished requests; Rejected counts submissions
	// refused at admission (validation, cancellation, or ErrClosed).
	Completed, Rejected int64

	// Batches counts dispatched batches; BatchedOps the unit pieces (whole
	// or partial units) they carried, so BatchedOps/Batches is the mean
	// pieces per store pass.
	Batches, BatchedOps int64

	// FlushFull and FlushDeadline count why batches dispatched: the batch
	// reached QueueDepth, or FlushDelay expired first.
	FlushFull, FlushDeadline int64

	// FgQueue and BgQueue are the instantaneous submission-queue depths
	// per class.
	FgQueue, BgQueue int

	// ForegroundLatency and BackgroundLatency summarize end-to-end
	// request latency (admission to completion) per class.
	ForegroundLatency, BackgroundLatency obs.Summary
}

// request is the pooled internal form of an Op.
type request struct {
	op    Op
	start time.Time   // admission time, for end-to-end latency
	cb    func(error) // async completion; nil for sync waiters
	done  chan error  // sync completion, capacity 1, reused with the request
}

// Frontend batches and executes requests against a Store. All methods
// are safe for concurrent use.
type Frontend struct {
	s   *store.Store
	cfg Config

	fg, bg chan *request
	quit   chan struct{}

	// closeMu serializes admission against Close: submitters hold it
	// shared across the closed-check and the enqueue, so after Close
	// takes it exclusively no new request can enter the queues.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	reqPool sync.Pool
	turn    chan struct{} // one slot: deadline batches form in turns (see form)

	submitted, background, completed, rejected atomic.Int64
	batches, batchedOps, flushFull, flushDL    atomic.Int64

	// latHist records end-to-end request latency (admission to
	// completion), indexed by Class.
	latHist [2]obs.Hist

	// trace, when set, records every admitted request (kind, class,
	// logical, arrival time) into a sim.TraceWriter — the capture side
	// of the scenario engine's record/replay loop. It is an atomic
	// pointer so the hot path pays one load and a nil check when
	// recording is off.
	trace atomic.Pointer[sim.TraceWriter]
}

// New starts a Frontend serving s. Close releases its goroutines; the
// Store itself stays open (the caller owns it).
func New(s *store.Store, cfg Config) *Frontend {
	if s == nil {
		panic("serve: New: nil Store")
	}
	c := cfg.withDefaults()
	f := &Frontend{
		s:    s,
		cfg:  c,
		fg:   make(chan *request, c.QueueDepth),
		bg:   make(chan *request, c.QueueDepth),
		quit: make(chan struct{}),
		turn: make(chan struct{}, 1),
	}
	f.reqPool.New = func() any { return &request{done: make(chan error, 1)} }
	f.wg.Add(c.Workers)
	for i := 0; i < c.Workers; i++ {
		go f.worker()
	}
	return f
}

// Store returns the underlying byte store (for admin operations: Fail,
// Rebuild, Stats, VerifyParity).
func (f *Frontend) Store() *store.Store { return f.s }

// Stats snapshots the frontend counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Submitted:         f.submitted.Load(),
		Background:        f.background.Load(),
		Completed:         f.completed.Load(),
		Rejected:          f.rejected.Load(),
		Batches:           f.batches.Load(),
		BatchedOps:        f.batchedOps.Load(),
		FlushFull:         f.flushFull.Load(),
		FlushDeadline:     f.flushDL.Load(),
		FgQueue:           len(f.fg),
		BgQueue:           len(f.bg),
		ForegroundLatency: f.latHist[Foreground].Summary(),
		BackgroundLatency: f.latHist[Background].Summary(),
	}
}

// RecordTrace starts recording every admitted request into tw in
// admission order; nil stops recording. The caller owns the writer and
// its Flush. Recording captures the live request stream a deployment
// actually served, so a scenario can replay it later (with original
// timing or a speed multiplier) against any target.
func (f *Frontend) RecordTrace(tw *sim.TraceWriter) {
	f.trace.Store(tw)
}

// Close drains the queues, executes what was already admitted (an open
// batch included), and stops the workers. Further submissions return
// ErrClosed. It does not close the Store.
func (f *Frontend) Close() error {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return nil
	}
	f.closed = true
	f.closeMu.Unlock()
	close(f.quit)
	f.wg.Wait()
	return nil
}

// Do submits op and blocks until it completes, returning the execution
// error. Admission blocks while op's class queue is full; ctx cancels
// the wait for admission only — once admitted, the op runs to completion
// (its buffer is in flight and must not be reused earlier).
func (f *Frontend) Do(ctx context.Context, op Op) error {
	r, err := f.submit(ctx, op, nil)
	if err != nil {
		return err
	}
	err = <-r.done
	f.reqPool.Put(r)
	return err
}

// Go submits op asynchronously: complete is invoked exactly once (on a
// worker goroutine) with the op's execution error. A non-nil return
// means the op was not admitted and complete will not be called.
func (f *Frontend) Go(ctx context.Context, op Op, complete func(error)) error {
	if complete == nil {
		return errors.New("serve: Go: nil completion")
	}
	_, err := f.submit(ctx, op, complete)
	return err
}

// Read serves a foreground read of len(dst) bytes into dst, starting at
// unit logical's first byte.
func (f *Frontend) Read(ctx context.Context, logical int, dst []byte) error {
	return f.Do(ctx, Op{Kind: Read, Logical: logical, Buf: dst})
}

// Write serves a foreground write of src, starting at unit logical's
// first byte.
func (f *Frontend) Write(ctx context.Context, logical int, src []byte) error {
	return f.Do(ctx, Op{Kind: Write, Logical: logical, Buf: src})
}

// submit validates and enqueues op, so batch execution errors are real
// I/O errors, never one request's bad arguments.
func (f *Frontend) submit(ctx context.Context, op Op, cb func(error)) (*request, error) {
	if op.Kind != Read && op.Kind != Write {
		f.rejected.Add(1)
		return nil, fmt.Errorf("serve: bad op kind %d", op.Kind)
	}
	if op.Class != Foreground && op.Class != Background {
		f.rejected.Add(1)
		return nil, fmt.Errorf("serve: bad class %d", op.Class)
	}
	unit := f.s.UnitSize()
	if len(op.Buf) == 0 || op.Within < 0 || op.Within >= unit || op.Logical < 0 || op.Logical >= f.s.Capacity() ||
		int64(op.Logical)*int64(unit)+int64(op.Within) > f.s.Size()-int64(len(op.Buf)) {
		f.rejected.Add(1)
		return nil, fmt.Errorf("serve: %d bytes at byte %d of unit %d outside %d units of %d bytes", len(op.Buf), op.Within, op.Logical, f.s.Capacity(), unit)
	}
	r := f.reqPool.Get().(*request)
	r.op = op
	r.start = time.Now()
	r.cb = cb
	q := f.fg
	if op.Class == Background {
		q = f.bg
	}
	// The admission lock is held across the (possibly blocking) enqueue:
	// Close cannot start draining while any submitter is mid-send, so an
	// admitted request is always executed. A full queue therefore holds
	// Close up until the workers drain the blocked senders — or their
	// contexts cancel.
	f.closeMu.RLock()
	if f.closed {
		f.closeMu.RUnlock()
		f.reqPool.Put(r)
		f.rejected.Add(1)
		return nil, ErrClosed
	}
	select {
	case q <- r:
		f.closeMu.RUnlock()
	case <-ctx.Done():
		f.closeMu.RUnlock()
		f.reqPool.Put(r)
		f.rejected.Add(1)
		return nil, ctx.Err()
	}
	f.submitted.Add(1)
	if op.Class == Background {
		f.background.Add(1)
	}
	if tw := f.trace.Load(); tw != nil {
		kind := sim.Read
		if op.Kind == Write {
			kind = sim.Write
		}
		// One line per unit touched, best effort: a sticky writer error
		// surfaces at Flush; dropping a trace op must never fail its
		// request.
		for i, n := 0, (op.Within+len(op.Buf)+unit-1)/unit; i < n; i++ {
			_ = tw.Record(kind, op.Logical+i, op.Class == Background, r.start)
		}
	}
	return r, nil
}

// worker forms batches from the queues and executes them, one at a
// time: flush-on-full at QueueDepth, flush-on-deadline at FlushDelay,
// foreground strictly before background. The batch, its timer and the
// partition scratch belong to the worker, so a batch goes from forming
// to executing without a hand-off.
func (f *Frontend) worker() {
	defer f.wg.Done()
	var ex execState
	batch := make([]*request, 0, f.cfg.QueueDepth)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		batch = f.form(batch, timer)
		if len(batch) == 0 {
			return
		}
		f.batches.Add(1)
		f.run(&ex, batch)
		// The requests are completed (back in the pool or handed to
		// their waiters): drop the references before reuse.
		clear(batch)
		batch = batch[:0]
	}
}

// form blocks for the worker's next batch, returned empty once the
// frontend is closed and drained. With FlushDelay > 0 workers take turns:
// idle ones would otherwise wait on the queue too, and a burst of
// consecutive requests would be dealt out one per worker instead of
// filling one batch whose whole stripes promote. An immediate batch is
// only what is already waiting, so those form concurrently.
func (f *Frontend) form(batch []*request, timer *time.Timer) []*request {
	if f.cfg.FlushDelay > 0 {
		f.turn <- struct{}{}
		defer func() { <-f.turn }()
	}
	if r := f.first(); r != nil {
		return f.fill(append(batch, r), timer)
	}
	return batch
}

// first blocks for a batch's opening request, foreground preferred; it
// returns nil once the frontend is closed and the queues are drained.
func (f *Frontend) first() *request {
	if r := f.takeWaiting(); r != nil {
		return r
	}
	select {
	case r := <-f.fg:
		return r
	case r := <-f.bg:
		return r
	case <-f.quit:
		// Closed: nothing new can arrive; serve what is still queued.
		return f.takeWaiting()
	}
}

// takeWaiting returns an already-queued request, foreground first, or
// nil when both queues are momentarily empty.
func (f *Frontend) takeWaiting() *request {
	select {
	case r := <-f.fg:
		return r
	default:
	}
	select {
	case r := <-f.bg:
		return r
	default:
		return nil
	}
}

// fill grows batch until full or the flush deadline, foreground first.
func (f *Frontend) fill(batch []*request, timer *time.Timer) []*request {
	if f.cfg.FlushDelay < 0 {
		// Immediate mode: take whatever is already waiting, then flush.
		return f.finishFill(batch)
	}
	timer.Reset(f.cfg.FlushDelay)
	for len(batch) < f.cfg.QueueDepth {
		if r := f.takeWaiting(); r != nil {
			batch = append(batch, r)
			continue
		}
		select {
		case r := <-f.fg:
			batch = append(batch, r)
		case r := <-f.bg:
			batch = append(batch, r)
		case <-timer.C:
			f.flushDL.Add(1)
			return batch
		case <-f.quit:
			timer.Stop()
			return f.finishFill(batch)
		}
	}
	timer.Stop()
	f.flushFull.Add(1)
	return batch
}

// finishFill tops the batch up with already-waiting requests and
// accounts the flush reason: full if the batch hit QueueDepth, deadline
// (an empty-queue flush) otherwise.
func (f *Frontend) finishFill(batch []*request) []*request {
	for len(batch) < f.cfg.QueueDepth {
		r := f.takeWaiting()
		if r == nil {
			f.flushDL.Add(1)
			return batch
		}
		batch = append(batch, r)
	}
	f.flushFull.Add(1)
	return batch
}

// execState is one worker's reusable partition scratch.
type execState struct {
	rops, wops   []store.VecOp
	rreqs, wreqs []*request
}

// run executes one batch, one VecOp per unit a request touches (its first
// and last may be partial): writes as one WriteVec pass (coalescing plus
// full-stripe promotion), then reads as ReadVec.
func (f *Frontend) run(ex *execState, batch []*request) {
	ex.rops, ex.wops = ex.rops[:0], ex.wops[:0]
	ex.rreqs, ex.wreqs = ex.rreqs[:0], ex.wreqs[:0]
	unit := f.s.UnitSize()
	for _, r := range batch {
		ops, reqs := &ex.rops, &ex.rreqs
		if r.op.Kind == Write {
			ops, reqs = &ex.wops, &ex.wreqs
		}
		for u, w, b := r.op.Logical, r.op.Within, r.op.Buf; len(b) > 0; u, w = u+1, 0 {
			n := min(unit-w, len(b))
			*ops = append(*ops, store.VecOp{Logical: u, Within: w, Buf: b[:n]})
			b = b[n:]
		}
		*reqs = append(*reqs, r)
	}
	f.batchedOps.Add(int64(len(ex.rops) + len(ex.wops)))
	if len(ex.wops) > 0 {
		err := f.s.WriteVec(ex.wops)
		f.finish(ex.wreqs, err)
	}
	if len(ex.rops) > 0 {
		err := f.s.ReadVec(ex.rops)
		f.finish(ex.rreqs, err)
	}
}

// finish completes a batch's requests with its vec error. A vec pass
// stops at the first failure, so err is reported to every request of the
// pass (the store's error names the failing disk operation).
func (f *Frontend) finish(reqs []*request, err error) {
	for _, r := range reqs {
		f.completed.Add(1)
		f.latHist[r.op.Class].Record(time.Since(r.start))
		if cb := r.cb; cb != nil {
			r.cb = nil
			f.reqPool.Put(r)
			cb(err)
			continue
		}
		r.done <- err
	}
}
