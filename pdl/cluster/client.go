package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/pdl/obs"
	"repro/pdl/serve"
)

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// DialTimeout bounds each shard connect (initial dial and every
	// reconnect). Default 5s.
	DialTimeout time.Duration

	// Retries is how many times a shard operation that failed with a
	// transport error is retried over a fresh connection before the
	// failure surfaces. Server-reported errors (serve.RemoteError) and
	// caller bugs (serve.ErrClientClosed) never retry. Default 2.
	Retries int

	// RetryBackoff is the pause before the first retry, doubling per
	// attempt. Default 25ms.
	RetryBackoff time.Duration

	// Conns is how many TCP connections to open per shard; pipelined
	// operations stripe across them. Zero picks the serve package's
	// CPU-aware default; negative means 1.
	Conns int
}

// DefaultDialTimeout bounds shard connects when Options.DialTimeout is zero.
const DefaultDialTimeout = 5 * time.Second

// DefaultRetries is the per-operation reconnect budget when
// Options.Retries is zero.
const DefaultRetries = 2

// DefaultRetryBackoff is the initial retry pause when
// Options.RetryBackoff is zero.
const DefaultRetryBackoff = 25 * time.Millisecond

func (o *Options) withDefaults() Options {
	out := *o
	if out.DialTimeout <= 0 {
		out.DialTimeout = DefaultDialTimeout
	}
	if out.Retries == 0 {
		out.Retries = DefaultRetries
	}
	if out.Retries < 0 {
		out.Retries = 0
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = DefaultRetryBackoff
	}
	return out
}

// ShardError reports which shard a namespace operation failed on; it
// supports errors.Is/As through Unwrap.
type ShardError struct {
	// Shard is the failing shard's index in placement order.
	Shard int

	// Addr is the shard's endpoint.
	Addr string

	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// shardConn is one shard's connection state and counters. The serve
// connection is replaced on transport failure; everything else persists
// for the client's lifetime.
type shardConn struct {
	idx  int
	addr string

	// c is the live connection. A nil c means the last connection broke
	// (or was never dialed); the next operation redials. Dialing holds
	// mu, so concurrent legs to a down shard wait for one reconnect
	// instead of racing their own; reading c does not, so starting a leg
	// never waits behind another shard's dial.
	mu sync.Mutex
	c  atomic.Pointer[serve.Client]

	hist                obs.Hist
	ops                 atomic.Int64
	failures            atomic.Int64
	retries, reconnects atomic.Int64
	down                atomic.Bool
}

// Client serves one byte namespace over the cluster's shards. It is safe
// for concurrent use: a span starts a leg on every shard it touches and
// then awaits them, and each shard's serve.Client pipelines concurrent
// requests into the server's batch path. Each shard is its own failure
// domain — a degraded or rebuilding shard slows only the pieces placed
// on it.
type Client struct {
	m   *Map
	man *Manifest
	opt Options

	shards []shardConn

	fanPool sync.Pool
}

// fanout is one span operation's reusable scratch: one leg per shard.
// Pooled so the steady-state span path allocates nothing.
type fanout struct {
	legs []leg
}

func newFanout(shards int) *fanout { return &fanout{legs: make([]leg, shards)} }

// leg is one shard's part of a span: its local byte extent [lo, hi),
// the staging buffer holding those bytes, and, while it runs, the
// attempt in flight.
type leg struct {
	touched bool
	lo, hi  int64
	buf     []byte
	err     error

	start time.Time     // when the leg started, for the shard's histogram
	sc    *serve.Client // the connection the attempt in flight runs on
	span  *serve.Span   // the attempt in flight; nil if none started
}

// Open connects to every shard in the manifest and validates the live
// geometry against it: each shard's array unit size must divide
// UnitBytes (so cluster pieces align with server stripe units and whole
// stripes of small pieces can promote to full-stripe writes), and each
// shard's byte capacity must cover its manifest units. Every shard must
// be reachable; shards that die later are redialed per operation.
func Open(man *Manifest, opts Options) (*Client, error) {
	m, err := man.Map()
	if err != nil {
		return nil, err
	}
	c := &Client{m: m, man: man.Clone(), opt: opts.withDefaults()}
	c.shards = make([]shardConn, len(man.Shards))
	c.fanPool.New = func() any { return newFanout(len(c.shards)) }
	for s := range man.Shards {
		sh := &c.shards[s]
		sh.idx = s
		sh.addr = man.Shards[s].Addr
		sc, err := c.dial(sh.addr)
		if err != nil {
			c.Close()
			return nil, &ShardError{Shard: s, Addr: sh.addr, Err: err}
		}
		sh.c.Store(sc)
		if err := c.checkGeometry(man, s, sc); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Client) dial(addr string) (*serve.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opt.DialTimeout)
	defer cancel()
	if c.opt.Conns != 0 {
		return serve.DialContext(ctx, addr, serve.WithConns(c.opt.Conns))
	}
	return serve.DialContext(ctx, addr)
}

// checkGeometry validates one live shard against its manifest entry.
func (c *Client) checkGeometry(man *Manifest, s int, sc *serve.Client) error {
	unit := int64(sc.UnitSize())
	if unit < 1 || man.UnitBytes%unit != 0 {
		return &ShardError{Shard: s, Addr: man.Shards[s].Addr,
			Err: fmt.Errorf("cluster: array unit %d B does not divide shard-unit %d B", unit, man.UnitBytes)}
	}
	if need := man.Shards[s].Units * man.UnitBytes; sc.Size() < need {
		return &ShardError{Shard: s, Addr: man.Shards[s].Addr,
			Err: fmt.Errorf("cluster: array holds %d B, manifest places %d B", sc.Size(), need)}
	}
	return nil
}

// Map returns the shard map addressing the namespace.
func (c *Client) Map() *Map { return c.m }

// Manifest returns a copy of the manifest the client was opened with.
func (c *Client) Manifest() *Manifest { return c.man.Clone() }

// Size returns the namespace size in bytes.
func (c *Client) Size() int64 { return c.m.Size() }

// UnitBytes returns the shard-unit size in bytes.
func (c *Client) UnitBytes() int64 { return c.m.UnitBytes() }

// Shards returns the number of shards.
func (c *Client) Shards() int { return len(c.shards) }

// Close closes every shard connection. In-flight operations fail.
func (c *Client) Close() error {
	var first error
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		if sc := sh.c.Swap(nil); sc != nil {
			if err := sc.Close(); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// stage prepares a span's legs. One walk over the span's pieces finds
// each touched shard's local extent [lo, hi): local units are monotone
// in namespace order, so a span touches one contiguous range per shard.
// Each staging buffer is then sized to its extent once, keeping capacity
// across spans, so the steady state allocates nothing. On a write (src
// non-nil) a second walk copies the span's bytes into the buffers.
func (c *Client) stage(fo *fanout, off, n int64, src []byte) {
	for s := range fo.legs {
		fo.legs[s].touched = false
	}
	c.m.LocateRange(off, n, func(s int, local, _ int64, ln int) {
		lg := &fo.legs[s]
		if !lg.touched {
			lg.touched = true
			lg.lo = local
		}
		lg.hi = local + int64(ln)
	})
	for s := range fo.legs {
		lg := &fo.legs[s]
		if !lg.touched {
			continue
		}
		need := int(lg.hi - lg.lo)
		if cap(lg.buf) < need {
			lg.buf = make([]byte, need)
		}
		lg.buf = lg.buf[:need]
	}
	if src == nil {
		return
	}
	c.m.LocateRange(off, n, func(s int, local, spanOff int64, ln int) {
		lg := &fo.legs[s]
		copy(lg.buf[local-lg.lo:], src[spanOff-off:][:ln])
	})
}

// settle reads a span's outcome off its legs in one walk over its
// pieces: the contiguous byte count before the first piece whose shard
// failed, and that failure as a ShardError — the same contract as
// serve.Client spans, one level up. On a read (dst non-nil) it also
// copies every piece of each leg that succeeded into dst, including
// pieces after the first failure; a failed leg's staging bytes are not
// data, so its pieces of dst are left as they were.
func (c *Client) settle(fo *fanout, off, n int64, dst []byte) (int, error) {
	cn := 0
	var first error
	c.m.LocateRange(off, n, func(s int, local, spanOff int64, ln int) {
		lg := &fo.legs[s]
		if lg.err != nil {
			if first == nil {
				first = &ShardError{Shard: s, Addr: c.shards[s].addr, Err: lg.err}
			}
			return
		}
		if first == nil {
			cn += ln
		}
		if dst != nil {
			copy(dst[spanOff-off:][:ln], lg.buf[local-lg.lo:])
		}
	})
	return cn, first
}

func (c *Client) getFan() *fanout { return c.fanPool.Get().(*fanout) }

func (c *Client) putFan(fo *fanout) {
	for s := range fo.legs {
		fo.legs[s].err = nil
	}
	c.fanPool.Put(fo)
}

// ReadAt reads len(p) bytes of the namespace starting at off: the span
// splits into one contiguous local range per shard, started on every
// touched shard, then awaited (each shard's pipelined requests feed its
// server's ReadVec batch path). Reads crossing the end of the namespace
// return the available prefix and io.EOF. On a shard failure it returns
// the contiguous byte count confirmed before the first failing piece.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtClass(p, off, serve.Foreground)
}

// ReadAtClass is ReadAt with an explicit priority class.
func (c *Client) ReadAtClass(p []byte, off int64, class serve.Class) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("cluster: ReadAt: negative offset %d", off)
	}
	size := c.m.Size()
	if off >= size {
		return 0, io.EOF
	}
	eof := false
	if off+int64(len(p)) > size {
		p = p[:size-off]
		eof = true
	}
	if len(p) == 0 {
		return 0, nil
	}
	fo := c.getFan()
	c.stage(fo, off, int64(len(p)), nil)
	c.run(fo, false, class)
	n, err := c.settle(fo, off, int64(len(p)), p)
	c.putFan(fo)
	if err != nil {
		return n, err
	}
	if eof {
		return len(p), io.EOF
	}
	return len(p), nil
}

// WriteAt writes len(p) bytes of the namespace starting at off, split
// like ReadAt, started on every touched shard, then awaited; a
// stripe-aligned span's pieces coalesce into the shard servers' WriteVec
// batch path and promote to full-stripe writes. Each leg is one
// serve.Client byte span, so each shard writes its part one stripe at a
// time under that stripe's lock, partial array units included: every
// stripe's part is atomic against concurrent writers and readers, and
// bytes no other writer touches are never undone, but the span as a
// whole is not atomic across stripes or shards. On a shard failure it
// returns the contiguous byte count confirmed before the first failing
// piece.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtClass(p, off, serve.Foreground)
}

// WriteAtClass is WriteAt with an explicit priority class.
func (c *Client) WriteAtClass(p []byte, off int64, class serve.Class) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("cluster: WriteAt: negative offset %d", off)
	}
	size := c.m.Size()
	if off > size-int64(len(p)) {
		return 0, fmt.Errorf("cluster: WriteAt: %d bytes at %d outside namespace of %d bytes", len(p), off, size)
	}
	if len(p) == 0 {
		return 0, nil
	}
	fo := c.getFan()
	c.stage(fo, off, int64(len(p)), p)
	c.run(fo, true, class)
	n, err := c.settle(fo, off, int64(len(p)), nil)
	c.putFan(fo)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// retryable reports whether a fresh connection could help: transport
// failures yes; server-reported errors (the connection worked) and calls
// on a client the caller closed (a bug) no.
func retryable(err error) bool {
	var remote *serve.RemoteError
	return !errors.As(err, &remote) && !errors.Is(err, serve.ErrClientClosed)
}

// run starts every touched leg on its shard's live connection, then
// awaits each leg in shard order. Every leg runs its own retry budget, so
// one flapping shard delays only its own pieces.
func (c *Client) run(fo *fanout, write bool, class serve.Class) {
	for s := range fo.legs {
		lg := &fo.legs[s]
		if !lg.touched {
			continue
		}
		c.shards[s].ops.Add(1)
		lg.start = time.Now()
		if lg.sc = c.shards[s].c.Load(); lg.sc != nil {
			lg.begin(write, class)
		}
	}
	for s := range fo.legs {
		if lg := &fo.legs[s]; lg.touched {
			lg.err = c.await(s, lg, write, class)
		}
	}
}

// begin starts one attempt of the leg on lg.sc.
func (lg *leg) begin(write bool, class serve.Class) {
	if write {
		lg.span = lg.sc.StartWriteAt(lg.buf, lg.lo, class)
	} else {
		lg.span = lg.sc.StartReadAt(lg.buf, lg.lo, class)
	}
}

// await finishes one leg under the shard's retry/reconnect budget and
// records its latency. A leg that could not start (no live connection)
// dials and starts here; that attempt, or the started one, is attempt 0.
func (c *Client) await(si int, lg *leg, write bool, class serve.Class) error {
	sh := &c.shards[si]
	var err error
	if lg.span == nil {
		lg.sc, err = sh.get(c)
	}
	for attempt := 0; ; attempt++ {
		if err == nil {
			if lg.span == nil {
				lg.begin(write, class)
			}
			_, err = lg.span.Wait()
			lg.span = nil
			if err == nil {
				sh.down.Store(false)
				break
			}
		}
		sh.failures.Add(1)
		if !retryable(err) || attempt >= c.opt.Retries {
			if retryable(err) {
				sh.down.Store(true)
			}
			break
		}
		if lg.sc != nil {
			sh.drop(lg.sc)
			lg.sc = nil
		}
		time.Sleep(c.opt.RetryBackoff << attempt)
		sh.retries.Add(1)
		if lg.sc, err = sh.get(c); err == nil {
			sh.reconnects.Add(1)
		}
	}
	lg.sc = nil
	sh.hist.Record(time.Since(lg.start))
	return err
}

// get returns the shard's live connection, dialing if the last one broke.
func (sh *shardConn) get(c *Client) (*serve.Client, error) {
	if sc := sh.c.Load(); sc != nil {
		return sc, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sc := sh.c.Load(); sc != nil {
		return sc, nil
	}
	sc, err := c.dial(sh.addr)
	if err != nil {
		return nil, err
	}
	// A reconnect revalidates geometry: the endpoint may have been
	// restarted serving a different (or shrunken) array.
	if err := c.checkGeometry(c.man, sh.idx, sc); err != nil {
		sc.Close()
		return nil, err
	}
	sh.c.Store(sc)
	return sc, nil
}

// drop discards a connection observed broken; only the first observer
// closes it (later drops of the same pointer are no-ops against a
// replacement dialed in between).
func (sh *shardConn) drop(sc *serve.Client) {
	sh.c.CompareAndSwap(sc, nil)
	sc.Close()
}

// ShardStats is one shard's client-side view.
type ShardStats struct {
	// Addr is the shard's endpoint; Units its addressable shard-units.
	Addr  string `json:"addr"`
	Units int64  `json:"units"`

	// State is the live state: down when unreachable, else the server's
	// rebuilding/degraded/healthy condition.
	State ShardState `json:"state"`

	// Ops counts shard legs; Failures leg attempts that errored;
	// Retries legs retried after a transport error; Reconnects redials
	// that succeeded.
	Ops, Failures, Retries, Reconnects int64

	// P50/P95/P99/Mean summarize leg latency (connect + all piece
	// requests + retries) from a lock-free power-of-two histogram
	// (obs.Hist); percentiles resolve to bucket upper bounds.
	P50, P95, P99, Mean time.Duration

	// Server is the shard server's own counters; zero when unreachable.
	Server serve.ServerStats
}

// Stats reports per-shard state and latency. It queries every shard
// concurrently, best-effort: an unreachable shard reports ShardDown with
// zero server counters instead of failing the call.
func (c *Client) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &c.shards[s]
			st := &out[s]
			st.Addr = sh.addr
			st.Units = c.m.ShardUnits(s)
			st.Ops = sh.ops.Load()
			st.Failures = sh.failures.Load()
			st.Retries = sh.retries.Load()
			st.Reconnects = sh.reconnects.Load()
			// One snapshot for all four numbers: the Load ordering contract
			// keeps them consistent against concurrent Record calls (count
			// first, so ranks resolve inside the buckets).
			var hs obs.HistSnapshot
			sh.hist.Load(&hs)
			st.P50 = hs.Percentile(50)
			st.P95 = hs.Percentile(95)
			st.P99 = hs.Percentile(99)
			st.Mean = hs.Mean()
			sc, err := sh.get(c)
			if err != nil {
				st.State = ShardDown
				return
			}
			srv, err := sc.Stats()
			if err != nil {
				sh.drop(sc)
				st.State = ShardDown
				return
			}
			st.Server = srv
			switch {
			case srv.Store.Rebuilding:
				st.State = ShardRebuilding
			case len(srv.Store.FailedDisks) > 0:
				st.State = ShardDegraded
			default:
				st.State = ShardHealthy
			}
		}(s)
	}
	wg.Wait()
	return out
}
