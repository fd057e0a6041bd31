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
	FailedDisk int `json:"failed_disk"`

	// FailedDisks lists every currently-failed disk in increasing order
	// (multi-parity arrays tolerate several at once); absent when
	// healthy, so pre-multi-failure clients see an unchanged schema.
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

	// maxConnSpans bounds concurrent OpReadSpan streams per connection:
	// each holds a chunk buffer and a goroutine, and a hostile client
	// could otherwise open them for the price of a 26-byte frame.
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
// only when every unit op that aliases it has completed), and response
// payloads go out as header+payload iovec pairs via net.Buffers
// (writev), recycling only after the gather write lands.
type Server struct {
	// FailDisk, when non-nil, handles wire.OpFail instead of the store's
	// in-memory Fail. Durable servers point it at array.Fail so the
	// scrub and the persisted failure state survive a restart.
	FailDisk func(disk int) error

	// RebuildDisk, when non-nil, handles wire.OpRebuild instead of the
	// default rebuild onto a fresh MemDisk sized for the geometry.
	// Durable servers point it at array.Rebuild so the reconstructed
	// bytes and the manifest state land on disk. The server still
	// serializes rebuild requests.
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
	// input into many disk-sized allocations.
	rebuilding atomic.Bool

	// connsAccepted, readSpans, and writeStreams count accepted
	// connections and opened wire v2 span streams over the server's life.
	connsAccepted atomic.Int64
	readSpans     atomic.Int64
	writeStreams  atomic.Int64

	bufPool   sync.Pool // *[]byte unit payload buffers
	chunkPool sync.Pool // *[]byte read-span chunk buffers
	respPool  sync.Pool // *srvResp
	reqPool   sync.Pool // *srvReq with a prebuilt completion closure
	framePool sync.Pool // *frameBuf refcounted request payload buffers
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
	unit := s.unit
	s.bufPool.New = func() any {
		b := make([]byte, unit)
		return &b
	}
	chunk := s.chunkUnits() * unit
	s.chunkPool.New = func() any {
		b := make([]byte, chunk)
		return &b
	}
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
	return s
}

// chunkUnits is how many whole units one read-span chunk carries.
func (s *Server) chunkUnits() int {
	cu := wire.MaxChunk / s.unit
	if cu < 1 {
		cu = 1
	}
	return cu
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
// reader holds one reference while dispatching; each unit write op that
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
// goes out as its own iovec. unitBuf/chunkBuf, when set, are pooled
// buffers the payload aliases — returned to their pools only after the
// writev that sends them lands (or the connection is known broken).
type srvResp struct {
	hdr      [wire.RespFrameHeaderLen]byte
	payload  []byte
	unitBuf  *[]byte
	chunkBuf *[]byte
}

func (s *Server) getResp(id uint64, status uint8, payload []byte) *srvResp {
	r := s.respPool.Get().(*srvResp)
	wire.AppendResponseHeader(r.hdr[:0], id, status, len(payload))
	r.payload = payload
	return r
}

// srvReq is one in-flight unit op's pooled completion state. cb is
// prebuilt at pool time and forwards to complete, so submitting an op
// allocates nothing.
type srvReq struct {
	s   *Server
	st  *connState
	id  uint64
	fb  *frameBuf // write: payload alias reference, released on completion
	buf *[]byte   // read: pooled unit buffer the store fills
	ws  *wstream  // stream write: per-span state, nil for plain unit ops
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

// complete is every unit op's completion: respond (or account the
// stream), release the aliased buffers, recycle, and drop the pending
// count last so the writer cannot close under a response in flight.
func (sr *srvReq) complete(err error) {
	s, st := sr.s, sr.st
	switch {
	case sr.ws != nil:
		sr.fb.release()
		sr.ws.unitDone(err)
	case sr.fb != nil:
		sr.fb.release()
		if err != nil {
			st.respondErr(sr.id, err)
		} else {
			st.send(s.getResp(sr.id, wire.StatusOK, nil))
		}
	default:
		if err != nil {
			s.bufPool.Put(sr.buf)
			st.respondErr(sr.id, err)
		} else {
			r := s.getResp(sr.id, wire.StatusOK, *sr.buf)
			r.unitBuf = sr.buf
			st.send(r)
		}
	}
	s.putReq(sr)
	st.pending.Done()
}

// connState is one connection's server-side state. streams is owned by
// the reader goroutine; pending counts every in-flight submission whose
// completion will still queue a response.
type connState struct {
	s       *Server
	out     chan *srvResp
	pending sync.WaitGroup
	streams map[uint64]*wstream
	spanSem chan struct{}
}

func (st *connState) send(r *srvResp) { st.out <- r }

func (st *connState) respondErr(id uint64, err error) {
	if err == nil {
		err = errors.New("unknown error")
	}
	st.send(st.s.getResp(id, wire.StatusErr, []byte(err.Error())))
}

// wstream is one open write stream. The reader goroutine owns the
// sequencing state (wire.WriteStream, seen, poisoned); outstanding
// carries one token per in-flight unit op plus one reader token dropped
// when the final chunk has been submitted — whoever drops it to zero
// sends the single stream response.
type wstream struct {
	wire.WriteStream
	st    *connState
	id    uint64
	class Class

	seen     int  // units arrived (reader-owned), valid or drained
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

func (ws *wstream) unitDone(err error) {
	if err != nil {
		ws.fail(err)
	}
	ws.drop()
}

// drop releases one outstanding token; the last one answers the stream.
func (ws *wstream) drop() {
	if ws.outstanding.Add(-1) != 0 {
		return
	}
	if !ws.responded.CompareAndSwap(false, true) {
		return
	}
	ws.errMu.Lock()
	err := ws.firstErr
	ws.errMu.Unlock()
	if err != nil {
		ws.st.respondErr(ws.id, err)
	} else {
		ws.st.send(ws.st.s.getResp(ws.id, wire.StatusOK, nil))
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
		s:       s,
		out:     make(chan *srvResp, 256),
		spanSem: make(chan struct{}, maxConnSpans),
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
	// In-flight completions still queue responses; close the channel
	// only after they all land.
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
	if r.unitBuf != nil {
		s.bufPool.Put(r.unitBuf)
		r.unitBuf = nil
	}
	if r.chunkBuf != nil {
		s.chunkPool.Put(r.chunkBuf)
		r.chunkBuf = nil
	}
	r.payload = nil
	s.respPool.Put(r)
}

// dispatch routes one decoded request. req.Payload aliases fb's buffer;
// handlers that hand it to the store retain fb per aliasing op. A false
// return drops the connection (hostile or broken peer).
func (s *Server) dispatch(st *connState, req *wire.Request, fb *frameBuf) bool {
	stt := s.front.Store()
	switch req.Op {
	case wire.OpInfo:
		info := wire.Info{
			UnitSize: stt.UnitSize(),
			Capacity: stt.Capacity(),
			Disks:    stt.Mapper().Disks(),
			Failed:   stt.Failed(),
		}
		// Arg carries a v2 client's hello; a v1 client's Arg is 0 and
		// gets the plain v1 payload it expects.
		if v, feats := wire.DecodeHello(req.Arg); v >= wire.Version2 {
			st.send(s.getResp(req.ID, wire.StatusOK, wire.AppendInfoV2(nil, &info, wire.Version2, feats&wire.Features)))
		} else {
			st.send(s.getResp(req.ID, wire.StatusOK, wire.AppendInfo(nil, &info)))
		}

	case wire.OpRead:
		bp := s.bufPool.Get().(*[]byte)
		sr := s.getReq(st, req.ID)
		sr.buf = bp
		st.pending.Add(1)
		if err := s.front.Go(s.ctx, Op{Kind: Read, Class: Class(req.Class), Logical: int(req.Arg), Buf: *bp}, sr.cb); err != nil {
			s.bufPool.Put(bp)
			s.putReq(sr)
			st.pending.Done()
			st.respondErr(req.ID, err)
		}

	case wire.OpWrite:
		if len(req.Payload) != s.unit {
			st.respondErr(req.ID, fmt.Errorf("write payload %d bytes, want unit size %d", len(req.Payload), s.unit))
			return true
		}
		// The store writes straight from the read buffer: no copy. The
		// op's reference keeps it alive until the completion runs.
		fb.retain(1)
		sr := s.getReq(st, req.ID)
		sr.fb = fb
		st.pending.Add(1)
		if err := s.front.Go(s.ctx, Op{Kind: Write, Class: Class(req.Class), Logical: int(req.Arg), Buf: req.Payload}, sr.cb); err != nil {
			fb.release()
			s.putReq(sr)
			st.pending.Done()
			st.respondErr(req.ID, err)
		}

	case wire.OpReadSpan:
		count, err := wire.DecodeSpanCount(req.Payload)
		if err != nil {
			st.respondErr(req.ID, err)
			return true
		}
		capa := stt.Capacity()
		if req.Arg >= uint64(capa) || count > capa-int(req.Arg) {
			st.respondErr(req.ID, fmt.Errorf("span [%d,+%d) outside capacity %d", req.Arg, count, capa))
			return true
		}
		st.spanSem <- struct{}{} // backpressure: bounded concurrent spans
		st.pending.Add(1)
		s.readSpans.Add(1)
		go s.readSpan(st, req.ID, Class(req.Class), int(req.Arg), count)

	case wire.OpWriteSpan:
		count, err := wire.DecodeSpanCount(req.Payload)
		if err != nil {
			// Without a parseable count the stream cannot be drained;
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
		ws := &wstream{
			WriteStream: wire.WriteStream{Start: int(req.Arg), Count: count},
			st:          st,
			id:          req.ID,
			class:       Class(req.Class),
		}
		ws.outstanding.Store(1) // the reader's token
		capa := stt.Capacity()
		if req.Arg >= uint64(capa) || count > capa-int(req.Arg) {
			// Answer now, but keep the stream registered poisoned: the
			// client may have pipelined chunk frames before seeing the
			// error, and they must drain by count, not kill the conn.
			ws.poisoned = true
			ws.responded.Store(true)
			st.respondErr(req.ID, fmt.Errorf("span [%d,+%d) outside capacity %d", req.Arg, count, capa))
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
		fail := stt.Fail
		if s.FailDisk != nil {
			fail = s.FailDisk
		}
		if err := fail(int(req.Arg)); err != nil {
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
		st.respondErr(req.ID, fmt.Errorf("unknown op %d", req.Op))
	}
	return true
}

// writeChunk feeds one OpWriteChunk frame into its stream: validate the
// sequencing, then submit each unit as a write op whose buffer aliases
// the frame payload (fb holds one reference per unit until that unit's
// completion runs).
func (s *Server) writeChunk(st *connState, ws *wstream, req *wire.Request, fb *frameBuf) bool {
	unit := s.unit
	if ws.poisoned {
		// The stream already answered (early error); drain the client's
		// remaining pipelined chunks by unit count.
		if len(req.Payload) < unit {
			return false // cannot make progress: broken peer
		}
		ws.seen += len(req.Payload) / unit
		if ws.seen >= ws.Count {
			delete(st.streams, req.ID)
		}
		return true
	}
	k, err := ws.Consume(req.Arg, len(req.Payload), unit)
	if err != nil {
		// Sequencing violation: answer once, then drain the rest of the
		// declared count (the client may have pipelined ahead).
		if ws.responded.CompareAndSwap(false, true) {
			st.respondErr(req.ID, err)
		}
		ws.poisoned = true
		adv := len(req.Payload) / unit
		if adv < 1 {
			adv = 1
		}
		ws.seen += adv
		if ws.seen >= ws.Count {
			delete(st.streams, req.ID)
		}
		return true
	}
	fb.retain(int32(k))
	for i := 0; i < k; i++ {
		sr := s.getReq(st, req.ID)
		sr.fb = fb
		sr.ws = ws
		st.pending.Add(1)
		ws.outstanding.Add(1)
		buf := req.Payload[i*unit : (i+1)*unit]
		if err := s.front.Go(s.ctx, Op{Kind: Write, Class: ws.class, Logical: int(req.Arg) + i, Buf: buf}, sr.cb); err != nil {
			fb.release()
			s.putReq(sr)
			st.pending.Done()
			ws.fail(err)
			ws.drop()
		}
	}
	ws.seen += k
	if ws.seen >= ws.Count {
		// Final chunk submitted: drop the reader token so the last unit
		// completion (or this drop, if all already landed) answers.
		delete(st.streams, req.ID)
		ws.drop()
	}
	return true
}

// readSpan streams count units starting at start back as ordered
// StatusChunk frames. Each chunk is a pooled buffer scatter-filled by
// per-unit read ops through the frontend's batch path, handed to the
// writer as one iovec, and recycled after its writev lands.
func (s *Server) readSpan(st *connState, id uint64, class Class, start, count int) {
	defer func() {
		<-st.spanSem
		st.pending.Done()
	}()
	unit := s.unit
	cu := s.chunkUnits()
	cbp := s.chunkPool.Get().(*[]byte)
	for done := 0; done < count; {
		k := min(cu, count-done)
		chunk := (*cbp)[:k*unit]
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var firstErr error
		cb := func(err error) {
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			wg.Done()
		}
		for i := 0; i < k; i++ {
			wg.Add(1)
			if err := s.front.Go(s.ctx, Op{Kind: Read, Class: class, Logical: start + done + i, Buf: chunk[i*unit : (i+1)*unit]}, cb); err != nil {
				cb(err)
			}
		}
		wg.Wait()
		errMu.Lock()
		err := firstErr
		errMu.Unlock()
		if err != nil {
			s.chunkPool.Put(cbp)
			st.respondErr(id, err)
			return
		}
		r := s.getResp(id, wire.StatusChunk, chunk)
		r.chunkBuf = cbp
		st.send(r)
		// The writer owns that buffer now; take a fresh one.
		cbp = s.chunkPool.Get().(*[]byte)
		done += k
	}
	s.chunkPool.Put(cbp)
}

func (s *Server) rebuild() error {
	st := s.front.Store()
	// Validate before provisioning: the replacement is a disk-sized
	// allocation, and a hostile peer can send rebuild frames for free.
	if st.Failed() < 0 {
		return errors.New("rebuild: no failed disk")
	}
	if !s.rebuilding.CompareAndSwap(false, true) {
		return errors.New("rebuild: already in progress")
	}
	defer s.rebuilding.Store(false)
	if s.RebuildDisk != nil {
		return s.RebuildDisk()
	}
	rep := store.NewMemDisk(int64(st.Mapper().DiskUnits()) * int64(st.UnitSize()))
	if err := st.Rebuild(rep); err != nil {
		rep.Close()
		return err
	}
	return nil
}

func (s *Server) stats() ServerStats {
	st := s.front.Store().Stats()
	out := ServerStats{Frontend: s.front.Stats()}
	out.Store.FailedDisk = st.Failed
	out.Store.FailedDisks = st.FailedDisks
	c := s.front.Store().Code()
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
