package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/pdl/serve/wire"
)

// RemoteError is a failure reported by the server over the wire: the
// connection is fine, the server answered, and the answer was an error.
// It is not a transport failure, so retrying over a fresh connection
// cannot help.
type RemoteError struct {
	// Msg is the server's error text.
	Msg string
}

func (e *RemoteError) Error() string { return "serve: remote: " + e.Msg }

// ErrClientClosed reports a call on a Client whose Close was already
// called — a caller bug, not a connection failure. Transport failures
// (the server died, the network broke) surface as other errors, so a
// pooling caller like pdl/cluster can tell retryable shard loss (redial)
// from misuse (don't). It supports errors.Is.
var ErrClientClosed = errors.New("serve: client closed")

// DefaultConns is how many TCP connections Dial opens per endpoint on a
// machine with at least that many CPUs. Pipelined ops stripe round-robin
// across them, so one TCP window (and one kernel socket lock) no longer
// caps a client; WithConns overrides. Dial clamps the default to the CPU
// count — each connection costs a writer and a reader goroutine, which
// only pay for themselves when they can run in parallel.
const DefaultConns = 4

// defaultConns is the effective Dial default: DefaultConns capped at the
// available parallelism.
func defaultConns() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	if n > DefaultConns {
		n = DefaultConns
	}
	return n
}

const (
	// cliReadBufSize is the per-connection response read buffer.
	cliReadBufSize = 64 << 10

	// maxWriteBatch bounds how many request frames one writev gathers.
	maxWriteBatch = 64

	// sendqDepth is the per-connection outbound frame queue; enqueueing
	// blocks when it fills, which backpressures span streaming.
	sendqDepth = 512
)

// Option tunes Dial/DialContext.
type Option func(*dialOptions)

type dialOptions struct {
	conns int
}

// WithConns sets how many TCP connections the client opens (default
// DefaultConns). Values below 1 mean 1.
func WithConns(n int) Option { return func(o *dialOptions) { o.conns = n } }

// call is one in-flight request's completion state. An OpReadSpan
// stream's call has a dst: the reader lands each chunk in it at recv, the
// bytes received so far, and completes the call when dst is full.
type call struct {
	dst  []byte  // read stream destination (chunks land here directly)
	out  *[]byte // generic payload destination (info, stats), allocated
	done chan error
	recv int // read stream: bytes landed in dst so far
}

// frame is one encoded request awaiting the writer. hdr holds the frame
// header (and, for span ops, the length payload); payload aliases the
// caller's buffer and goes out as its own iovec — the zero-copy send.
type frame struct {
	hdr     [wire.ReqFrameHeaderLen + wire.SpanLenLen]byte
	hn      int
	payload []byte
}

// pendShardBits/pendShards shard the pending-call table so pipelining
// goroutines don't serialize on one lock (and the table replaces the
// old map's per-request insert alloc with recycled slots).
const (
	pendShardBits = 3
	pendShards    = 1 << pendShardBits
)

// pendingTable maps request ids to in-flight calls. Ids encode their
// own location — gen(32) | slot(29) | shard(3) — so lookup is two
// indexes under a sharded lock, and a stale id (slot recycled, gen
// bumped) misses instead of aliasing.
type pendingTable struct {
	rr     atomic.Uint32
	shards [pendShards]pendShard
}

type pendShard struct {
	mu    sync.Mutex
	slots []pendSlot
	free  []uint32
}

type pendSlot struct {
	cl  *call
	gen uint32
}

func (t *pendingTable) put(cl *call) uint64 {
	si := uint64(t.rr.Add(1)) % pendShards
	sh := &t.shards[si]
	sh.mu.Lock()
	var idx uint32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		idx = uint32(len(sh.slots))
		sh.slots = append(sh.slots, pendSlot{})
	}
	sl := &sh.slots[idx]
	sl.gen++
	sl.cl = cl
	id := uint64(sl.gen)<<32 | uint64(idx)<<pendShardBits | si
	sh.mu.Unlock()
	return id
}

func (t *pendingTable) locate(id uint64) (*pendShard, uint32, uint32) {
	sh := &t.shards[id&(pendShards-1)]
	idx := uint32(id>>pendShardBits) & (1<<29 - 1)
	gen := uint32(id >> 32)
	return sh, idx, gen
}

// peek returns the call registered under id, leaving it registered.
func (t *pendingTable) peek(id uint64) *call {
	sh, idx, gen := t.locate(id)
	var cl *call
	sh.mu.Lock()
	if int(idx) < len(sh.slots) && sh.slots[idx].gen == gen {
		cl = sh.slots[idx].cl
	}
	sh.mu.Unlock()
	return cl
}

// remove takes the call registered under id out of the table; nil means
// someone else (the reader, or a drain) already owns its completion.
func (t *pendingTable) remove(id uint64) *call {
	sh, idx, gen := t.locate(id)
	var cl *call
	sh.mu.Lock()
	if int(idx) < len(sh.slots) && sh.slots[idx].gen == gen && sh.slots[idx].cl != nil {
		cl = sh.slots[idx].cl
		sh.slots[idx].cl = nil
		sh.free = append(sh.free, idx)
	}
	sh.mu.Unlock()
	return cl
}

// drain completes every registered call with err. Only the connection's
// reader goroutine may call it (see cconn.readFail): a call being
// completed concurrently with the reader's ReadFull into its dst would
// let the caller recycle that buffer mid-read.
func (t *pendingTable) drain(err error) {
	for si := range t.shards {
		sh := &t.shards[si]
		sh.mu.Lock()
		for i := range sh.slots {
			if cl := sh.slots[i].cl; cl != nil {
				sh.slots[i].cl = nil
				sh.free = append(sh.free, uint32(i))
				cl.done <- err
			}
		}
		sh.mu.Unlock()
	}
}

// cconn is one of the client's TCP connections: a writer goroutine
// gathering queued frames into writev batches, a reader goroutine
// demuxing responses into the pending table, and a sticky error set on
// the first failure.
type cconn struct {
	c     *Client
	nc    net.Conn
	sendq chan *frame
	quit  chan struct{}
	once  sync.Once

	mu     sync.Mutex
	sticky error

	pend pendingTable
}

// Client speaks the wire protocol over one or more connections. It is
// safe for concurrent use: goroutines' requests are pipelined and
// striped round-robin across the connections, matched to responses by
// id, so N concurrent callers give the server N requests to coalesce
// into batches without serializing on one TCP window.
type Client struct {
	conns  []*cconn
	rr     atomic.Uint32
	closed atomic.Bool

	// info is the server geometry from the handshake, fixed for the
	// client's life. Failure state is not geometry: Stats reports it.
	info wire.Info

	// version/features are the handshake's negotiated protocol level
	// (the minimum across connections) — fixed at dial time.
	version  uint8
	features uint64

	callPool  sync.Pool
	framePool sync.Pool
	spanPool  sync.Pool // *Span, with its segment ring

	// requests, readSpans, and writeStreams count started non-span
	// requests (handshake, stats, admin) and opened wire v2 span streams
	// over the client's life.
	requests     atomic.Int64
	readSpans    atomic.Int64
	writeStreams atomic.Int64
}

func newClient() *Client {
	c := &Client{}
	c.callPool.New = func() any { return &call{done: make(chan error, 1)} }
	c.framePool.New = func() any { return new(frame) }
	c.spanPool.New = func() any { return new(Span) }
	return c
}

// Dial connects to a serve.Server (DefaultConns connections unless
// WithConns says otherwise) and performs the geometry handshake.
func Dial(addr string, opts ...Option) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext is Dial bounded by ctx: a deadline or cancellation aborts
// the TCP connects (callers like pdl/cluster use it to put a dial
// timeout on every shard, so one unreachable endpoint cannot hang a
// fan-out).
func DialContext(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	o := dialOptions{conns: defaultConns()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.conns < 1 {
		o.conns = 1
	}
	c := newClient()
	for i := 0; i < o.conns; i++ {
		// Go dials TCP with TCP_NODELAY set, which is what this client
		// wants: it batches frames via writev, so Nagle only adds latency.
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("serve: dial: %w", err)
		}
		c.addConn(nc)
	}
	if err := c.handshake(); err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: handshake: %w", err)
	}
	return c, nil
}

// NewClient wraps an established connection (from Dial, or any net.Conn
// speaking the protocol) and performs the geometry handshake.
func NewClient(conn net.Conn) (*Client, error) {
	c := newClient()
	c.addConn(conn)
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake: %w", err)
	}
	return c, nil
}

func (c *Client) addConn(nc net.Conn) {
	cn := &cconn{
		c:     c,
		nc:    nc,
		sendq: make(chan *frame, sendqDepth),
		quit:  make(chan struct{}),
	}
	c.conns = append(c.conns, cn)
	go cn.writeLoop()
	go cn.readLoop()
}

// handshake sends a v2 hello on every connection and records the
// negotiated protocol level: the minimum version and the feature
// intersection across connections. Every data op is a byte span, so a
// server that does not accept wire.FeatByteSpans is refused; a v1
// server's 20-byte Info already fails to decode.
func (c *Client) handshake() error {
	for i, cn := range c.conns {
		var raw []byte
		cl, err := c.startOn(cn, wire.OpInfo, wire.EncodeHello(wire.Version2, wire.Features), &raw)
		if err != nil {
			return err
		}
		if err := c.wait(cl); err != nil {
			return err
		}
		var in wire.Info
		v, feats, err := decodeGeometry(raw, &in)
		if err != nil {
			return err
		}
		if i == 0 {
			c.version, c.features, c.info = v, feats, in
		} else {
			if v < c.version {
				c.version = v
			}
			c.features &= feats
		}
	}
	if c.version < wire.Version2 || c.features&wire.FeatByteSpans == 0 {
		return fmt.Errorf("serve: server (wire v%d, features %#x) does not accept wire.FeatByteSpans, byte-range spans", c.version, c.features)
	}
	return nil
}

// decodeGeometry is wire.DecodeInfo plus the check that the answer is
// a geometry the client can address: ReadAt and WriteAt divide by the unit
// size, and a server is not trusted to send a usable one.
func decodeGeometry(raw []byte, in *wire.Info) (version uint8, features uint64, err error) {
	version, features, err = wire.DecodeInfo(raw, in)
	if err == nil && (in.UnitSize < 1 || in.Capacity < 0) {
		err = fmt.Errorf("serve: server reports unit size %d, capacity %d units: not a usable geometry", in.UnitSize, in.Capacity)
	}
	return version, features, err
}

// ProtocolVersion returns the wire version negotiated at dial time.
func (c *Client) ProtocolVersion() uint8 { return c.version }

// Features returns the feature bits accepted at dial time.
func (c *Client) Features() uint64 { return c.features }

// UnitSize returns the server's stripe-unit payload size in bytes.
func (c *Client) UnitSize() int { return c.info.UnitSize }

// Capacity returns the server's number of addressable logical units.
func (c *Client) Capacity() int { return c.info.Capacity }

// Disks returns the server's disk count.
func (c *Client) Disks() int { return c.info.Disks }

// Close closes every connection; in-flight and later calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	for _, cn := range c.conns {
		cn.poison(ErrClientClosed)
	}
	return nil
}

// Read fills dst (UnitSize bytes) with a logical unit's payload: a
// one-unit span.
func (c *Client) Read(logical int, dst []byte) error {
	return c.ReadClass(logical, dst, Foreground)
}

// ReadClass is Read with an explicit priority class.
func (c *Client) ReadClass(logical int, dst []byte, class Class) error {
	unit := c.UnitSize()
	if len(dst) != unit {
		return fmt.Errorf("serve: Read: dst is %d bytes, want unit size %d", len(dst), unit)
	}
	_, err := c.StartReadAt(dst, int64(logical)*int64(unit), class).Wait()
	return err
}

// Write stores src (UnitSize bytes) as a logical unit's payload: a
// one-unit span.
func (c *Client) Write(logical int, src []byte) error {
	return c.WriteClass(logical, src, Foreground)
}

// WriteClass is Write with an explicit priority class.
func (c *Client) WriteClass(logical int, src []byte, class Class) error {
	unit := c.UnitSize()
	if len(src) != unit {
		return fmt.Errorf("serve: Write: src is %d bytes, want unit size %d", len(src), unit)
	}
	_, err := c.StartWriteAt(src, int64(logical)*int64(unit), class).Wait()
	return err
}

// Fail marks a server disk failed; the array serves degraded after. The
// server refuses it while a rebuild is in progress. Stats reports the
// failed set.
func (c *Client) Fail(disk int) error {
	return c.do(wire.OpFail, uint64(disk), nil)
}

// Rebuild reconstructs the server's lowest-numbered failed disk onto a
// replacement, blocking until that disk is rebuilt. With several disks
// down the array is still degraded when it returns: call it once per
// failed disk (Stats().Store.FailedDisks lists them).
func (c *Client) Rebuild() error {
	return c.do(wire.OpRebuild, 0, nil)
}

// Stats fetches the server's store and frontend counters.
func (c *Client) Stats() (ServerStats, error) {
	var raw []byte
	var st ServerStats
	if err := c.do(wire.OpStats, 0, &raw); err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("serve: Stats: %w", err)
	}
	return st, nil
}

// pickBlock is how many consecutive requests share a connection before
// round-robin moves on: temporally-clustered ops (a response burst
// waking a crowd of callers) land on one socket and gather into one
// writev, instead of splintering across every connection.
const pickBlock = 16

// pick returns the next connection, block-striped round-robin.
func (c *Client) pick() *cconn {
	if len(c.conns) == 1 {
		return c.conns[0]
	}
	return c.conns[int(c.rr.Add(1))/pickBlock%len(c.conns)]
}

func (c *Client) getCall() *call { return c.callPool.Get().(*call) }

func (c *Client) putCall(cl *call) {
	cl.dst, cl.out, cl.recv = nil, nil, 0
	c.callPool.Put(cl)
}

func (c *Client) putFrame(fr *frame) {
	fr.payload = nil
	c.framePool.Put(fr)
}

// do issues one non-span request and blocks for its response, whose
// payload, if out is non-nil, lands in *out.
func (c *Client) do(op uint8, arg uint64, out *[]byte) error {
	cl, err := c.startOn(c.pick(), op, arg, out)
	if err != nil {
		return err
	}
	return c.wait(cl)
}

// startOn sends one non-span request (info, stats, admin) on cn without
// blocking for its response; the returned call must be handed to wait
// exactly once.
func (c *Client) startOn(cn *cconn, op uint8, arg uint64, out *[]byte) (*call, error) {
	c.requests.Add(1)
	cl := c.getCall()
	cl.out = out
	if _, err := c.register(cn, cl, op, Foreground, arg, 0); err != nil {
		return nil, err
	}
	return cl, nil
}

// register puts cl in cn's pending table and enqueues its request frame,
// carrying spanLen as a span op's length payload when it is positive. It
// returns the request id; on an error cl is recycled and must not be
// waited for.
func (c *Client) register(cn *cconn, cl *call, op uint8, class Class, arg uint64, spanLen int) (uint64, error) {
	if err := cn.err(); err != nil {
		c.putCall(cl)
		return 0, err
	}
	id := cn.pend.put(cl)
	fr := c.framePool.Get().(*frame)
	req := wire.Request{ID: id, Op: op, Class: uint8(class), Arg: arg}
	if spanLen > 0 {
		fr.hn = len(wire.AppendSpanLen(wire.AppendRequestHeader(fr.hdr[:0], &req, wire.SpanLenLen), spanLen))
	} else {
		fr.hn = len(wire.AppendRequestHeader(fr.hdr[:0], &req, 0))
	}
	if err := cn.enqueue(fr, id); err != nil {
		c.putCall(cl)
		return 0, err
	}
	return id, nil
}

// enqueue hands fr to the connection's writer. On a poisoned connection
// it resolves the race against the reader's drain: a non-nil return
// means this goroutine still owned the call's slot (the caller must not
// wait); nil with the slot already gone means someone else finished the
// call and the caller waits as usual.
func (cn *cconn) enqueue(fr *frame, id uint64) error {
	select {
	case cn.sendq <- fr:
	case <-cn.quit:
		cn.c.putFrame(fr)
		if cn.pend.remove(id) != nil {
			return cn.err()
		}
		return nil
	}
	// The connection may have failed between registration and the send
	// landing in the queue; if the drain missed the slot, resolve it
	// here so the call cannot strand.
	if serr := cn.err(); serr != nil {
		if cn.pend.remove(id) != nil {
			return serr
		}
	}
	return nil
}

// wait blocks for a started call's response and recycles the call.
func (c *Client) wait(cl *call) error {
	err := <-cl.done
	c.putCall(cl)
	return err
}

// waitSpan is wait for span calls: it also returns how many bytes of a
// read stream's prefix arrived before any failure.
func (c *Client) waitSpan(cl *call) (recv int, err error) {
	err = <-cl.done
	recv = cl.recv
	c.putCall(cl)
	return recv, err
}

// err returns the connection's sticky error.
func (cn *cconn) err() error {
	cn.mu.Lock()
	err := cn.sticky
	cn.mu.Unlock()
	return err
}

// poison marks the connection failed and closes the socket; it does NOT
// drain the pending table — the reader goroutine does that (readFail),
// so no call completes while the reader may still be filling its dst.
func (cn *cconn) poison(err error) {
	cn.mu.Lock()
	if cn.sticky == nil {
		cn.sticky = err
	}
	cn.mu.Unlock()
	cn.once.Do(func() { close(cn.quit) })
	cn.nc.Close()
}

// readFail is the reader's exit: poison, then drain — the reader is the
// only goroutine allowed to complete calls exceptionally.
func (cn *cconn) readFail(err error) {
	cn.poison(err)
	cn.pend.drain(cn.err())
}

// writeLoop drains sendq, gathering up to maxWriteBatch frames into one
// net.Buffers writev of header+payload iovecs — pipelined requests
// coalesce into single syscalls without copying payloads.
func (cn *cconn) writeLoop() {
	// bufs lives behind one stable pointer: Buffers.WriteTo has a pointer
	// receiver, so a stack header would escape and allocate per writev.
	bufs := new(net.Buffers)
	batch := make([]*frame, 0, maxWriteBatch)
	for {
		var fr *frame
		select {
		case fr = <-cn.sendq:
		case <-cn.quit:
			cn.drainSendq()
			return
		}
		batch = append(batch[:0], fr)
		// Yield once before collecting: the first enqueue wakes this
		// goroutine immediately, but its sender's siblings are usually
		// about to enqueue too (responses complete in bursts). Letting
		// them run first turns N one-frame writevs into one N-frame
		// writev — on a single core this is the difference between a
		// syscall per op and a syscall per batch.
		runtime.Gosched()
	collect:
		for len(batch) < maxWriteBatch {
			select {
			case fr2 := <-cn.sendq:
				batch = append(batch, fr2)
			default:
				break collect
			}
		}
		b := (*bufs)[:0]
		for _, f := range batch {
			b = append(b, f.hdr[:f.hn])
			if len(f.payload) > 0 {
				b = append(b, f.payload)
			}
		}
		*bufs = b
		_, werr := bufs.WriteTo(cn.nc)
		// WriteTo consumed *bufs; clear the backing array so the pooled
		// payloads are not pinned until the next batch.
		for i := range b {
			b[i] = nil
		}
		*bufs = b
		for i, f := range batch {
			cn.c.putFrame(f)
			batch[i] = nil
		}
		if werr != nil {
			if cn.c.closed.Load() {
				cn.poison(ErrClientClosed)
			} else {
				cn.poison(fmt.Errorf("serve: send: %w", werr))
			}
			cn.drainSendq()
			return
		}
	}
}

func (cn *cconn) drainSendq() {
	for {
		select {
		case fr := <-cn.sendq:
			cn.c.putFrame(fr)
		default:
			return
		}
	}
}

// readLoop demuxes response frames to their waiting calls, reading
// read-stream chunks directly into the callers' span buffers (no staging
// copy). On transport failure every pending and future call gets the
// error.
func (cn *cconn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, cliReadBufSize)
	var hdr [wire.RespFrameHeaderLen]byte
	var resp wire.Response
	var scratch []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// A read error after Close is the expected teardown, not a
			// transport failure: type it so callers can tell the two apart.
			if cn.c.closed.Load() {
				cn.readFail(ErrClientClosed)
			} else {
				cn.readFail(fmt.Errorf("serve: connection: %w", err))
			}
			return
		}
		pl, err := wire.DecodeResponseHeader(hdr[:], &resp)
		if err != nil {
			cn.readFail(err)
			return
		}

		switch resp.Status {
		case wire.StatusChunk:
			// One ordered chunk of a read stream: land it directly in the
			// caller's span buffer at the confirmed-prefix position. The
			// call stays registered until its last byte arrives, so a
			// concurrent drain cannot complete it mid-ReadFull.
			cl := cn.pend.peek(resp.ID)
			if cl == nil || cl.dst == nil {
				cn.readFail(fmt.Errorf("serve: unexpected chunk for request %d", resp.ID))
				return
			}
			if pl <= 0 || pl > len(cl.dst)-cl.recv {
				cn.readFail(fmt.Errorf("serve: chunk of %d bytes breaks stream sequencing", pl))
				return
			}
			if _, err := io.ReadFull(br, cl.dst[cl.recv:cl.recv+pl]); err != nil {
				cn.readFail(fmt.Errorf("serve: connection: %w", err))
				return
			}
			cl.recv += pl
			if cl.recv == len(cl.dst) {
				if cn.pend.remove(resp.ID) == cl {
					cl.done <- nil
				}
			}

		case wire.StatusOK:
			cl := cn.pend.remove(resp.ID)
			if cl == nil {
				cn.readFail(fmt.Errorf("serve: response for unknown request %d", resp.ID))
				return
			}
			switch {
			case cl.dst != nil:
				// Read streams terminate by delivering their bytes, never
				// by a bare OK.
				cl.done <- fmt.Errorf("serve: stray OK for read stream %d", resp.ID)
				cn.readFail(fmt.Errorf("serve: stray OK for read stream %d", resp.ID))
				return
			case cl.out != nil:
				b := make([]byte, pl)
				if _, err := io.ReadFull(br, b); err != nil {
					cl.done <- fmt.Errorf("serve: connection: %w", err)
					cn.readFail(fmt.Errorf("serve: connection: %w", err))
					return
				}
				*cl.out = b
			default:
				if pl > 0 {
					if _, err := br.Discard(pl); err != nil {
						cl.done <- fmt.Errorf("serve: connection: %w", err)
						cn.readFail(fmt.Errorf("serve: connection: %w", err))
						return
					}
				}
			}
			cl.done <- nil

		case wire.StatusErr:
			cl := cn.pend.remove(resp.ID)
			if cl == nil {
				cn.readFail(fmt.Errorf("serve: response for unknown request %d", resp.ID))
				return
			}
			if cap(scratch) < pl {
				scratch = make([]byte, pl)
			}
			scratch = scratch[:pl]
			if _, err := io.ReadFull(br, scratch); err != nil {
				cl.done <- fmt.Errorf("serve: connection: %w", err)
				cn.readFail(fmt.Errorf("serve: connection: %w", err))
				return
			}
			cl.done <- &RemoteError{Msg: string(scratch)}
		}
	}
}
