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
	"repro/pdl/store"
)

// ServerStats is the JSON payload answering wire.OpStats.
type ServerStats struct {
	// Store is the byte engine's per-disk counters and failure state.
	Store StoreStats `json:"store"`

	// Frontend is the batching front end's counters.
	Frontend Stats `json:"frontend"`
}

// StoreStats mirrors store.Stats for the wire (kept separate so the
// protocol schema is explicit and stable).
type StoreStats struct {
	// FailedDisks lists every currently-failed disk in increasing order
	// (multi-parity arrays tolerate several at once); absent when
	// healthy.
	FailedDisks []int `json:"failed_disks,omitempty"`

	// Codec and ParityShards describe the array's erasure code ("xor"
	// with 1 parity shard, "rs" with up to code.MaxParityShards).
	// Omitted by pre-codec servers, so Codec == "" reads as classic
	// single-parity XOR.
	Codec          string `json:"codec,omitempty"`
	ParityShards   int    `json:"parity_shards,omitempty"`
	Rebuilding     bool   `json:"rebuilding"`
	RebuiltStripes int    `json:"rebuilt_stripes"`
	TotalStripes   int    `json:"total_stripes"`
	Reads          int64  `json:"reads"`
	Writes         int64  `json:"writes"`
	ReadBytes      int64  `json:"read_bytes"`
	WriteBytes     int64  `json:"write_bytes"`
	Degraded       int64  `json:"degraded"`
}

const (
	// srvReadBufSize is the per-connection read buffer: big enough that
	// a burst of pipelined unit frames drains in one syscall.
	srvReadBufSize = 64 << 10

	// maxRespBatch bounds how many responses one writev gathers (each
	// contributes up to two iovecs; Linux caps a writev at 1024).
	maxRespBatch = 64

	// maxConnSpans bounds a connection's read-span workers, so its
	// concurrent OpReadSpan streams: each worker holds a chunk buffer
	// while it serves one, and a hostile client could otherwise open
	// streams for the price of a 26-byte frame. Workers start on demand
	// and park between spans until the connection closes.
	maxConnSpans = 32

	// maxOpenStreams bounds open write streams per connection, for the
	// same reason.
	maxOpenStreams = 256
)

// Server carries the wire protocol over TCP connections, submitting
// client requests to a Frontend. Requests from every connection share
// the frontend's queues, so independent clients coalesce into the same
// batches.
//
// The data path is zero-copy on both sides of the socket: request
// payloads are read into reference-counted pooled buffers that flow
// into store.WriteVec without an intermediate copy (the buffer recycles
// only when every request that aliases it has completed), and response
// payloads go out as header+payload iovec pairs via net.Buffers
// (writev), recycling only after the gather write lands.
type Server struct {
	// FailDisk, when non-nil, handles wire.OpFail instead of the store's
	// in-memory Fail. Durable servers point it at array.Fail so the
	// scrub and the persisted failure state survive a restart. Like the
	// store's Fail, it is not called while a rebuild runs: the server
	// refuses the OpFail.
	FailDisk func(disk int) error

	// RebuildDisk, when non-nil, handles wire.OpRebuild instead of the
	// default rebuild onto a fresh MemDisk sized for the geometry, which
	// closes the backend the rebuilt disk had. Durable servers point it
	// at array.Rebuild so the reconstructed bytes and the manifest state
	// land on disk. The server still serializes rebuild requests.
	RebuildDisk func() error

	// NoDelay is applied (explicitly) to every accepted TCP connection.
	// NewServer sets it true — request/response frames are latency
	// bound and the server already batches writes via writev — but it
	// can be cleared before Serve for WAN experiments.
	NoDelay bool

	// ReadBuffer and WriteBuffer, when positive, size the kernel socket
	// buffers (SO_RCVBUF/SO_SNDBUF) of every accepted TCP connection.
	// Zero keeps the OS defaults.
	ReadBuffer  int
	WriteBuffer int

	front *Frontend
	unit  int

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	ctx    context.Context
	cancel context.CancelFunc

	// rebuilding gates OpRebuild: one replacement disk is provisioned at
	// a time, so a burst of rebuild frames cannot amplify a few bytes of
	// input into many disk-sized allocations. It also refuses OpFail, so
	// the failed set a rebuild reads stays put until it ends; admin
	// orders that refusal against the rebuild setting the flag.
	admin      sync.Mutex
	rebuilding atomic.Bool

	// connsAccepted, readSpans, and writeStreams count accepted
	// connections and opened wire v2 span streams over the server's life.
	connsAccepted atomic.Int64
	readSpans     atomic.Int64
	writeStreams  atomic.Int64

	bufPool   sync.Pool // *[]byte read payload buffers (see getBuf)
	respPool  sync.Pool // *srvResp
	reqPool   sync.Pool // *srvReq with a prebuilt completion closure
	framePool sync.Pool // *frameBuf refcounted request payload buffers
	wsPool    sync.Pool // *wstream open write streams
}

// NewServer returns a Server submitting to front. Serve it on one or
// more listeners; Close stops them all.
func NewServer(front *Frontend) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		NoDelay: true,
		front:   front,
		unit:    front.Store().UnitSize(),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	s.bufPool.New = func() any { return new([]byte) }
	s.respPool.New = func() any { return new(srvResp) }
	s.reqPool.New = func() any {
		sr := new(srvReq)
		// The closure is allocated once per pooled object and reused for
		// every request it carries — the per-request completion-closure
		// alloc this replaces was a third of the TCP path's allocs/op.
		sr.cb = func(err error) { sr.complete(err) }
		return sr
	}
	s.framePool.New = func() any { return &frameBuf{pool: &s.framePool} }
	s.wsPool.New = func() any { return new(wstream) }
	return s
}

// Serve accepts connections on ln until Close (or a listener error) and
// handles each on its own goroutines. It blocks; run it in a goroutine.
// After Close it returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsAccepted.Add(1)
		go s.handle(conn)
	}
}

// Close stops all listeners and connections and waits for the handlers.
// The Frontend and Store stay open (the caller owns them).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// frameBuf is a reference-counted pooled request payload buffer. The
// reader holds one reference while dispatching; the write request that
// aliases the payload holds another until its completion runs, so the
// buffer cannot recycle while the store still reads from it.
type frameBuf struct {
	pool *sync.Pool
	refs atomic.Int32
	b    []byte
}

func (fb *frameBuf) retain(n int32) { fb.refs.Add(n) }

func (fb *frameBuf) release() {
	if fb.refs.Add(-1) == 0 {
		fb.pool.Put(fb)
	}
}

// getBuf returns a pooled read buffer of n bytes. A pooled buffer too
// short for n is replaced, so buffers track the sizes the server's reads
// need (up to a chunk) and a one-unit read never holds a chunk-sized
// buffer.
func (s *Server) getBuf(n int) *[]byte {
	bp := s.bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// getFrame returns a frame buffer sized to n with one reference held.
func (s *Server) getFrame(n int) *frameBuf {
	fb := s.framePool.Get().(*frameBuf)
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	fb.b = fb.b[:n]
	fb.refs.Store(1)
	return fb
}

// srvResp is one queued response: a fixed header plus a payload that
// goes out as its own iovec. buf, when set, is the pooled buffer the
// payload aliases — returned to bufPool only after the writev that sends
// it lands (or the connection is known broken).
type srvResp struct {
	hdr     [wire.RespFrameHeaderLen]byte
	payload []byte
	buf     *[]byte
}

func (s *Server) getResp(id uint64, status uint8, payload []byte) *srvResp {
	r := s.respPool.Get().(*srvResp)
	wire.AppendResponseHeader(r.hdr[:0], id, status, len(payload))
	r.payload = payload
	return r
}

// srvReq is the pooled completion state of one in-flight write chunk or
// read span inside one unit. cb is prebuilt at pool time and forwards to
// complete, so submitting a request allocates nothing.
type srvReq struct {
	s   *Server
	st  *connState
	id  uint64
	fb  *frameBuf // write: payload alias reference, released on completion
	buf *[]byte   // read: pooled buffer the store fills
	ws  *wstream  // write: its stream's state
	cb  func(error)
}

func (s *Server) getReq(st *connState, id uint64) *srvReq {
	sr := s.reqPool.Get().(*srvReq)
	sr.s = s
	sr.st = st
	sr.id = id
	return sr
}

func (s *Server) putReq(sr *srvReq) {
	sr.s = nil
	sr.st = nil
	sr.fb = nil
	sr.buf = nil
	sr.ws = nil
	s.reqPool.Put(sr)
}

// complete is every srvReq's completion: account the stream (or
// respond), release the aliased buffers, recycle, and drop the pending
// count last so the writer cannot close under a response in flight.
func (sr *srvReq) complete(err error) {
	s, st := sr.s, sr.st
	switch {
	case sr.ws != nil:
		sr.fb.release()
		sr.ws.chunkDone(err)
	case err != nil:
		s.bufPool.Put(sr.buf)
		st.respondErr(sr.id, err)
	default:
		r := s.getResp(sr.id, wire.StatusChunk, *sr.buf)
		r.buf = sr.buf
		st.send(r)
	}
	s.putReq(sr)
	st.pending.Done()
}

// connState is one connection's server-side state. streams and
// spanWorkers are owned by the reader goroutine; pending counts every
// in-flight submission whose completion will still queue a response,
// and every read-span worker.
type connState struct {
	s       *Server
	out     chan *srvResp
	pending sync.WaitGroup
	streams map[uint64]*wstream

	// spans hands OpReadSpan streams to parked workers; unbuffered, so
	// a send succeeds only when a worker is free.
	spans       chan readSpanReq
	spanWorkers int
}

// readSpanReq is one OpReadSpan stream, validated, awaiting a worker.
type readSpanReq struct {
	id    uint64
	class Class
	off   int64
	n     int
}

func (st *connState) send(r *srvResp) { st.out <- r }

func (st *connState) respondErr(id uint64, err error) {
	if err == nil {
		err = errors.New("unknown error")
	}
	st.send(st.s.getResp(id, wire.StatusErr, []byte(err.Error())))
}

// wstream is one open write stream, pooled by the server. The reader
// goroutine owns the sequencing state (wire.WriteStream, seen,
// poisoned); outstanding carries one token per in-flight chunk write
// plus one reader token dropped when the declared length has arrived —
// whoever drops it to zero sends the single stream response, unless an
// early error already answered, and recycles the stream.
type wstream struct {
	wire.WriteStream
	st    *connState
	id    uint64
	class Class

	seen     int  // bytes arrived (reader-owned), valid or drained
	poisoned bool // reader-owned: respond sent early, drain the rest

	outstanding atomic.Int64
	responded   atomic.Bool
	errMu       sync.Mutex
	firstErr    error
}

func (ws *wstream) fail(err error) {
	ws.errMu.Lock()
	if ws.firstErr == nil {
		ws.firstErr = err
	}
	ws.errMu.Unlock()
}

func (ws *wstream) chunkDone(err error) {
	if err != nil {
		ws.fail(err)
	}
	ws.drop()
}

// drop releases one outstanding token; the last one answers the stream
// (unless an early error did) and recycles it.
func (ws *wstream) drop() {
	if ws.outstanding.Add(-1) != 0 {
		return
	}
	st := ws.st
	if ws.responded.CompareAndSwap(false, true) {
		if ws.firstErr != nil {
			st.respondErr(ws.id, ws.firstErr)
		} else {
			st.send(st.s.getResp(ws.id, wire.StatusOK, nil))
		}
	}
	*ws = wstream{}
	st.s.wsPool.Put(ws)
}

// arrived accounts n bytes that reached the reader, valid or drained;
// once the declared length is in, the reader forgets the stream and
// drops its token. ws must not be used after.
func (ws *wstream) arrived(n int) {
	ws.seen += n
	if ws.seen >= ws.Len {
		delete(ws.st.streams, ws.id)
		ws.drop()
	}
}

// handle runs one connection: a reader loop decoding and submitting
// requests, and a writer goroutine gathering completed responses into
// writev batches.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(s.NoDelay)
		if s.ReadBuffer > 0 {
			tc.SetReadBuffer(s.ReadBuffer)
		}
		if s.WriteBuffer > 0 {
			tc.SetWriteBuffer(s.WriteBuffer)
		}
	}
	st := &connState{
		s:     s,
		out:   make(chan *srvResp, 256),
		spans: make(chan readSpanReq),
	}
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		st.writeLoop(conn)
	}()

	br := bufio.NewReaderSize(conn, srvReadBufSize)
	var hdr [wire.ReqFrameHeaderLen]byte
	var req wire.Request
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		pl, err := wire.DecodeRequestHeader(hdr[:], &req)
		if err != nil {
			// A malformed frame means a broken peer; drop the connection
			// (the request id cannot be trusted for an error reply).
			break
		}
		var fb *frameBuf
		req.Payload = nil
		if pl > 0 {
			fb = s.getFrame(pl)
			if _, err := io.ReadFull(br, fb.b); err != nil {
				fb.release()
				break
			}
			req.Payload = fb.b
		}
		ok := s.dispatch(st, &req, fb)
		if fb != nil {
			fb.release()
		}
		if !ok {
			break
		}
	}
	// Span workers exit once their current span is done. In-flight
	// completions and spans still queue responses, so close st.out only
	// after they all land.
	close(st.spans)
	st.pending.Wait()
	close(st.out)
	writerDone.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// writeLoop drains st.out, gathering up to maxRespBatch responses into
// one net.Buffers writev of header+payload iovecs. Pooled payload
// buffers are released only after the gather write returns, so the
// kernel never reads from a recycled buffer.
func (st *connState) writeLoop(conn net.Conn) {
	// bufs lives behind one stable pointer: Buffers.WriteTo has a pointer
	// receiver, so a stack header would escape and allocate per writev.
	bufs := new(net.Buffers)
	batch := make([]*srvResp, 0, maxRespBatch)
	broken := false
	for r := range st.out {
		batch = append(batch[:0], r)
		// Yield before collecting: completions arrive in frontend-batch
		// bursts, and letting the completing goroutine finish its burst
		// turns per-response writevs into per-burst writevs (see the
		// client writeLoop for the same trick).
		runtime.Gosched()
	collect:
		for len(batch) < maxRespBatch {
			select {
			case r2, ok := <-st.out:
				if !ok {
					break collect
				}
				batch = append(batch, r2)
			default:
				break collect
			}
		}
		if !broken {
			iov := (*bufs)[:0]
			for _, b := range batch {
				iov = append(iov, b.hdr[:])
				if len(b.payload) > 0 {
					iov = append(iov, b.payload)
				}
			}
			*bufs = iov
			if _, err := bufs.WriteTo(conn); err != nil {
				broken = true
			}
			// WriteTo consumed *bufs; clear the backing array so pooled
			// payloads are not pinned until the next batch.
			for i := range iov {
				iov[i] = nil
			}
			*bufs = iov
		}
		for i, b := range batch {
			st.release(b)
			batch[i] = nil
		}
	}
}

func (st *connState) release(r *srvResp) {
	s := st.s
	if r.buf != nil {
		s.bufPool.Put(r.buf)
		r.buf = nil
	}
	r.payload = nil
	s.respPool.Put(r)
}

// dispatch routes one decoded request. req.Payload aliases fb's buffer;
// handlers that hand it to the store retain fb per aliasing request. A
// false return drops the connection (hostile or broken peer).
func (s *Server) dispatch(st *connState, req *wire.Request, fb *frameBuf) bool {
	stt := s.front.Store()
	switch req.Op {
	case wire.OpInfo:
		v, feats := wire.DecodeHello(req.Arg)
		if v < wire.Version2 {
			st.respondErr(req.ID, wire.ErrV1Retired)
			return true
		}
		info := wire.Info{UnitSize: stt.UnitSize(), Capacity: stt.Capacity(), Disks: stt.Mapper().Disks()}
		st.send(s.getResp(req.ID, wire.StatusOK, wire.AppendInfo(nil, &info, wire.Version2, feats&wire.Features)))

	case wire.OpReadSpan:
		n, err := wire.DecodeSpanLen(req.Payload)
		if err == nil {
			err = s.spanInside(req.Arg, n)
		}
		if err != nil {
			st.respondErr(req.ID, err)
			return true
		}
		s.readSpans.Add(1)
		off := int64(req.Arg)
		if within := int(off % int64(s.unit)); within+n <= s.unit && n <= streamChunkBytes(s.unit) {
			// A span inside one unit that fits one chunk is answered
			// straight from the Frontend's completion; longer spans,
			// including a whole unit larger than wire.MaxChunk, need a
			// span worker to cut them into ordered chunks.
			s.goRead(st, req.ID, Op{Kind: Read, Class: Class(req.Class), Logical: int(off / int64(s.unit)), Within: within}, n)
			return true
		}
		st.startSpan(readSpanReq{id: req.ID, class: Class(req.Class), off: off, n: n})

	case wire.OpWriteSpan:
		n, err := wire.DecodeSpanLen(req.Payload)
		if err != nil {
			// Without a parseable length the stream cannot be drained;
			// drop the connection.
			st.respondErr(req.ID, err)
			return false
		}
		if st.streams == nil {
			st.streams = make(map[uint64]*wstream)
		}
		if len(st.streams) >= maxOpenStreams {
			return false
		}
		if _, dup := st.streams[req.ID]; dup {
			return false
		}
		ws := s.wsPool.Get().(*wstream)
		ws.WriteStream = wire.WriteStream{Start: req.Arg, Len: n}
		ws.st, ws.id, ws.class = st, req.ID, Class(req.Class)
		ws.outstanding.Store(1) // the reader's token
		if err := s.spanInside(req.Arg, n); err != nil {
			// Answer now, but keep the stream registered poisoned: the
			// client may have pipelined chunk frames before seeing the
			// error, and they must drain by length, not kill the conn.
			ws.poisoned = true
			ws.responded.Store(true)
			st.respondErr(req.ID, err)
		}
		st.streams[req.ID] = ws
		s.writeStreams.Add(1)

	case wire.OpWriteChunk:
		ws, ok := st.streams[req.ID]
		if !ok {
			return false // chunk for a stream never opened: broken peer
		}
		return s.writeChunk(st, ws, req, fb)

	case wire.OpFail:
		// Compared as uint64: int(req.Arg) would truncate an Arg past 32
		// bits onto a valid disk where int is 32 bits.
		if n := stt.Mapper().Disks(); req.Arg >= uint64(n) {
			st.respondErr(req.ID, fmt.Errorf("serve: disk %d outside [0,%d)", req.Arg, n))
			return true
		}
		if err := s.fail(int(req.Arg)); err != nil {
			st.respondErr(req.ID, err)
		} else {
			st.send(s.getResp(req.ID, wire.StatusOK, nil))
		}

	case wire.OpRebuild:
		id := req.ID
		st.pending.Add(1)
		go func() {
			defer st.pending.Done()
			if err := s.rebuild(); err != nil {
				st.respondErr(id, err)
			} else {
				st.send(s.getResp(id, wire.StatusOK, nil))
			}
		}()

	case wire.OpStats:
		b, err := json.Marshal(s.stats())
		if err != nil {
			st.respondErr(req.ID, err)
		} else {
			st.send(s.getResp(req.ID, wire.StatusOK, b))
		}

	default:
		// Ops 2 and 3, wire v1's unit read and write: DecodeRequestHeader
		// refuses every op outside the package's range.
		st.respondErr(req.ID, wire.ErrV1Retired)
	}
	return true
}

// goRead submits op as a read of n bytes into a pooled buffer, answered
// with one StatusChunk of the bytes from the Frontend's completion.
func (s *Server) goRead(st *connState, id uint64, op Op, n int) {
	bp := s.getBuf(n)
	op.Buf = *bp
	sr := s.getReq(st, id)
	sr.buf = bp
	st.pending.Add(1)
	if err := s.front.Go(s.ctx, op, sr.cb); err != nil {
		s.bufPool.Put(bp)
		s.putReq(sr)
		st.pending.Done()
		st.respondErr(id, err)
	}
}

// spanInside checks a span of n bytes at byte offset off against the
// array, comparing as uint64 so an offset past 32 bits is refused, never
// truncated onto a valid one where int is 32 bits.
func (s *Server) spanInside(off uint64, n int) error {
	size := uint64(s.front.Store().Size())
	if off >= size || uint64(n) > size-off {
		return fmt.Errorf("span of %d bytes at byte %d outside %d bytes", n, off, size)
	}
	return nil
}

// writeChunk feeds one OpWriteChunk frame into its stream: validate the
// sequencing, then submit the chunk as one write request whose buffer
// is the frame payload (fb holds a reference until its completion
// runs). The store writes the chunk's partial head and tail units under
// their stripe locks.
func (s *Server) writeChunk(st *connState, ws *wstream, req *wire.Request, fb *frameBuf) bool {
	n := len(req.Payload)
	if ws.poisoned {
		// The stream already answered (early error); drain the client's
		// remaining pipelined chunks by length.
		if n == 0 {
			return false // cannot make progress: broken peer
		}
		ws.arrived(n)
		return true
	}
	if err := ws.Consume(req.Arg, n); err != nil {
		// Sequencing violation: answer once, then drain the rest of the
		// declared length (the client may have pipelined ahead).
		if ws.responded.CompareAndSwap(false, true) {
			st.respondErr(req.ID, err)
		}
		ws.poisoned = true
		ws.arrived(max(n, 1))
		return true
	}
	fb.retain(1)
	sr := s.getReq(st, req.ID)
	sr.fb = fb
	sr.ws = ws
	st.pending.Add(1)
	ws.outstanding.Add(1)
	op := Op{Kind: Write, Class: ws.class, Logical: int(req.Arg / uint64(s.unit)), Within: int(req.Arg % uint64(s.unit)), Buf: req.Payload}
	if err := s.front.Go(s.ctx, op, sr.cb); err != nil {
		fb.release()
		s.putReq(sr)
		st.pending.Done()
		ws.fail(err)
		ws.drop()
	}
	// The final chunk submitted drops the reader token, so the last chunk
	// completion (or this drop, if all already landed) answers.
	ws.arrived(n)
	return true
}

// startSpan hands a read span to a parked worker, else starts a new
// worker while fewer than maxConnSpans exist, else blocks the reader
// until a worker frees up: the connection's backpressure on spans.
func (st *connState) startSpan(sp readSpanReq) {
	select {
	case st.spans <- sp:
		return
	default:
	}
	if st.spanWorkers < maxConnSpans {
		st.spanWorkers++
		st.pending.Add(1)
		go st.spanWorker(sp)
		return
	}
	st.spans <- sp
}

// spanWorker serves read spans one after another until the reader
// closes st.spans at teardown.
func (st *connState) spanWorker(sp readSpanReq) {
	defer st.pending.Done()
	for {
		st.s.readSpan(st, sp)
		var ok bool
		if sp, ok = <-st.spans; !ok {
			return
		}
	}
}

// readSpan streams sp's bytes back as ordered StatusChunk frames. Each
// chunk is a pooled buffer filled by one frontend read request, handed to
// the writer as one iovec, and recycled after its writev lands.
func (s *Server) readSpan(st *connState, sp readSpanReq) {
	cb := streamChunkBytes(s.unit)
	for off, end := sp.off, sp.off+int64(sp.n); off < end; {
		// A fresh buffer per chunk: the writer owns each one sent.
		bp := s.getBuf(runLen(off, int(end-off), cb))
		chunk := *bp
		op := Op{Kind: Read, Class: sp.class, Logical: int(off / int64(s.unit)), Within: int(off % int64(s.unit)), Buf: chunk}
		if err := s.front.Do(s.ctx, op); err != nil {
			s.bufPool.Put(bp)
			st.respondErr(sp.id, err)
			return
		}
		r := s.getResp(sp.id, wire.StatusChunk, chunk)
		r.buf = bp
		st.send(r)
		off += int64(len(chunk))
	}
}

// fail answers OpFail, refused while a rebuild runs.
func (s *Server) fail(disk int) error {
	s.admin.Lock()
	defer s.admin.Unlock()
	if s.rebuilding.Load() {
		return fmt.Errorf("fail: disk %d: rebuild in progress", disk)
	}
	if s.FailDisk != nil {
		return s.FailDisk(disk)
	}
	return s.front.Store().Fail(disk)
}

// rebuild answers OpRebuild: it rebuilds the lowest failed disk. No disk
// fails while it runs (fail refuses), so the failed set read here is the
// one the rebuild works on.
func (s *Server) rebuild() error {
	s.admin.Lock()
	started := s.rebuilding.CompareAndSwap(false, true)
	s.admin.Unlock()
	if !started {
		return errors.New("rebuild: already in progress")
	}
	defer s.rebuilding.Store(false)
	st := s.front.Store()
	// Validate before provisioning: the replacement is a disk-sized
	// allocation, and a hostile peer can send rebuild frames for free.
	failed := st.FailedDisks()
	if len(failed) == 0 {
		return errors.New("rebuild: no failed disk")
	}
	if s.RebuildDisk != nil {
		return s.RebuildDisk()
	}
	// Rebuild displaces the failed disk's backend, and the caller owns it:
	// close it once the rebuild has put rep in its slot.
	old := st.DiskBackend(failed[0])
	rep := store.NewMemDisk(int64(st.Mapper().DiskUnits()) * int64(st.UnitSize()))
	if err := st.Rebuild(rep); err != nil {
		rep.Close()
		return err
	}
	return old.Close()
}

func (s *Server) stats() ServerStats {
	stt := s.front.Store()
	st := stt.Stats()
	out := ServerStats{Frontend: s.front.Stats()}
	out.Store.FailedDisks = st.FailedDisks
	c := stt.Code()
	out.Store.Codec = c.Name()
	out.Store.ParityShards = c.ParityShards()
	out.Store.Rebuilding = st.Rebuilding
	out.Store.RebuiltStripes = st.RebuiltStripes
	out.Store.TotalStripes = st.TotalStripes
	for _, d := range st.Disks {
		out.Store.Reads += d.Reads
		out.Store.Writes += d.Writes
		out.Store.ReadBytes += d.ReadBytes
		out.Store.WriteBytes += d.WriteBytes
		out.Store.Degraded += d.Degraded
	}
	return out
}
