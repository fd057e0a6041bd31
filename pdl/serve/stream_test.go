package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/serve/wire"
	"repro/pdl/store"
)

// rawV2Conn speaks the framing by hand so tests can send frame sequences
// the real client never emits — wire v1 requests, out-of-range spans,
// stale chunk ids — and observe exactly how the server answers.
type rawV2Conn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRawV2(t *testing.T, addr string) *rawV2Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawV2Conn{conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawV2Conn) send(t *testing.T, req *wire.Request) {
	t.Helper()
	if _, err := r.conn.Write(wire.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
}

func (r *rawV2Conn) recv(t *testing.T) wire.Response {
	t.Helper()
	body, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// writeSpan writes p at byte off as a write span of one chunk and
// returns the span's one response.
func (r *rawV2Conn) writeSpan(t *testing.T, id, off uint64, p []byte) wire.Response {
	t.Helper()
	r.send(t, &wire.Request{ID: id, Op: wire.OpWriteSpan, Arg: off, Payload: wire.AppendSpanLen(nil, len(p))})
	r.send(t, &wire.Request{ID: id, Op: wire.OpWriteChunk, Arg: off, Payload: p})
	return r.recv(t)
}

// readSpan reads n bytes at byte off as a read span and returns its
// first response: its one chunk when the span fits in one.
func (r *rawV2Conn) readSpan(t *testing.T, id, off uint64, n int) wire.Response {
	t.Helper()
	r.send(t, &wire.Request{ID: id, Op: wire.OpReadSpan, Arg: off, Payload: wire.AppendSpanLen(nil, n)})
	return r.recv(t)
}

// TestWriteStreamEarlyErrorDrains sends an out-of-range byte span with
// its chunks already pipelined behind it — the way the real client
// races ahead — and checks the server answers the span once with an
// error, absorbs every pipelined chunk, and keeps serving the
// connection afterwards.
func TestWriteStreamEarlyErrorDrains(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	rc := dialRawV2(t, addr)

	const n = 4*unitSize + 10
	start := uint64(f.Store().Size() - n + 7) // span sticks out past the end: rejected at open
	rc.send(t, &wire.Request{ID: 1, Op: wire.OpWriteSpan, Arg: start,
		Payload: wire.AppendSpanLen(nil, n)})
	chunk := payload(make([]byte, n/2), 1)
	rc.send(t, &wire.Request{ID: 1, Op: wire.OpWriteChunk, Arg: start, Payload: chunk})
	rc.send(t, &wire.Request{ID: 1, Op: wire.OpWriteChunk, Arg: start + n/2, Payload: chunk})

	resp := rc.recv(t)
	if resp.ID != 1 || resp.Status != wire.StatusErr {
		t.Fatalf("span open: id %d status %d, want StatusErr", resp.ID, resp.Status)
	}

	// The connection survived the poisoned stream: a one-unit span still
	// round-trips.
	want := payload(make([]byte, unitSize), 2)
	if resp := rc.writeSpan(t, 2, 0, want); resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("write after poisoned stream: id %d status %d", resp.ID, resp.Status)
	}
	if resp := rc.readSpan(t, 3, 0, unitSize); resp.Status != wire.StatusChunk || !bytes.Equal(resp.Payload, want) {
		t.Fatal("read after poisoned stream diverges")
	}
}

// TestWriteChunkUnknownStreamDropsConn sends a chunk for a stream that
// was never opened: the server cannot sequence it, so the connection
// must drop (a broken peer, not a recoverable error).
func TestWriteChunkUnknownStreamDropsConn(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	rc := dialRawV2(t, addr)

	rc.send(t, &wire.Request{ID: 99, Op: wire.OpWriteChunk, Arg: 0,
		Payload: make([]byte, unitSize)})
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(rc.br, nil); err == nil {
		t.Fatal("server answered a chunk for an unopened stream; want dropped connection")
	}
}

// TestUnitArgPastRangeRefused sends a Fail, and a read and a write byte
// span whose Arg lies past the array and past 32 bits: each must be
// refused by range, never truncated onto byte 0 or disk 3 where int is
// 32 bits. Wire v1's unit write and read (ops 3 and 2) with such an Arg
// are refused with wire.ErrV1Retired, whatever the Arg.
func TestUnitArgPastRangeRefused(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	rc := dialRawV2(t, addr)

	want := payload(make([]byte, unitSize), 4)
	if resp := rc.writeSpan(t, 1, 0, want); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("write unit 0: id %d status %d", resp.ID, resp.Status)
	}
	for _, req := range []wire.Request{
		{ID: 2, Op: 3, Arg: 1 << 32, Payload: payload(make([]byte, unitSize), 5)},
		{ID: 3, Op: 2, Arg: 1 << 32},
		{ID: 4, Op: wire.OpFail, Arg: 1<<32 + 3},
		{ID: 6, Op: wire.OpReadSpan, Arg: 1 << 32, Payload: wire.AppendSpanLen(nil, unitSize)},
		{ID: 7, Op: wire.OpWriteSpan, Arg: 1 << 32, Payload: wire.AppendSpanLen(nil, unitSize)},
	} {
		rc.send(t, &req)
		resp := rc.recv(t)
		if resp.ID != req.ID || resp.Status != wire.StatusErr {
			t.Errorf("op %d arg %#x: id %d status %d, want StatusErr", req.Op, req.Arg, resp.ID, resp.Status)
		}
		if retired := req.Op == 2 || req.Op == 3; retired != (string(resp.Payload) == wire.ErrV1Retired.Error()) {
			t.Errorf("op %d arg %#x: %q, want wire.ErrV1Retired for ops 2 and 3 only", req.Op, req.Arg, resp.Payload)
		}
	}
	// The refused write span drains its chunk without writing it.
	rc.send(t, &wire.Request{ID: 7, Op: wire.OpWriteChunk, Arg: 1 << 32, Payload: payload(make([]byte, unitSize), 6)})
	if resp := rc.readSpan(t, 5, 0, unitSize); resp.ID != 5 || resp.Status != wire.StatusChunk || !bytes.Equal(resp.Payload, want) {
		t.Error("unit 0 changed by a write past capacity")
	}
	if fd := f.Store().FailedDisks(); len(fd) != 0 {
		t.Errorf("disks %v failed by a Fail past the disk count", fd)
	}
}

// TestServerStreamChunkIsOneRequest pins the server's span path: a
// stream chunk enters the Frontend as one request, so a stripe-aligned
// write span reaches one WriteVec pass whole and every stripe it covers
// is a full-stripe write with no pre-reads — with immediate flush and
// several workers, which would split a per-unit run between batches.
func TestServerStreamChunkIsOneRequest(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 2, unitSize, serve.Config{Workers: 4, FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	diskReads := func() (n int64) {
		for _, d := range f.Store().Stats().Disks {
			n += d.Reads
		}
		return n
	}

	// (13, 4) stripes hold 3 data units: units [0,12) are 4 whole stripes.
	want := payload(make([]byte, 12*unitSize), 6)
	sub, reads := f.Stats().Submitted, diskReads()
	if n, err := c.WriteAt(want, 0); err != nil || n != len(want) {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	if d := f.Stats().Submitted - sub; d != 1 {
		t.Errorf("stream write submitted %d requests, want 1", d)
	}
	if d := diskReads() - reads; d != 0 {
		t.Errorf("whole-stripe stream write pre-read %d units, want 0", d)
	}

	got := make([]byte, len(want))
	sub = f.Stats().Submitted
	if n, err := c.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	if d := f.Stats().Submitted - sub; d != 1 {
		t.Errorf("stream read submitted %d requests, want 1", d)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream round trip diverges")
	}
}

// TestStreamMissequencedChunk opens a valid byte span, then sends a
// chunk at the wrong offset: the server must answer the stream id once
// with an error, drain the remaining declared bytes, and keep the
// connection serving.
func TestStreamMissequencedChunk(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	rc := dialRawV2(t, addr)

	const n = 4*unitSize + 6
	rc.send(t, &wire.Request{ID: 7, Op: wire.OpWriteSpan, Arg: 5,
		Payload: wire.AppendSpanLen(nil, n)})
	chunk := payload(make([]byte, n/2), 3)
	// Wrong offset: chunk claims byte 6, stream expects byte 5.
	rc.send(t, &wire.Request{ID: 7, Op: wire.OpWriteChunk, Arg: 6, Payload: chunk})
	rc.send(t, &wire.Request{ID: 7, Op: wire.OpWriteChunk, Arg: 6 + n/2, Payload: chunk})

	if resp := rc.recv(t); resp.ID != 7 || resp.Status != wire.StatusErr {
		t.Fatalf("missequenced stream: id %d status %d, want StatusErr", resp.ID, resp.Status)
	}
	rc.send(t, &wire.Request{ID: 8, Op: wire.OpInfo, Arg: wire.EncodeHello(wire.Version2, wire.Features)})
	if resp := rc.recv(t); resp.ID != 8 || resp.Status != wire.StatusOK {
		t.Fatal("connection did not survive a missequenced stream")
	}
}

// TestPipelinedCancelBufferSafety closes the client while a crowd of
// goroutines has span reads and writes in flight, then immediately
// scribbles over every caller-owned buffer. If the connection reader
// (or any pooled-buffer recycling) still touched a buffer after its
// call completed, the race detector catches the overlap — this is the
// regression gate for the zero-copy invariant that a payload buffer is
// never written after its caller has been released.
func TestPipelinedCancelBufferSafety(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 2, unitSize, serve.Config{QueueDepth: 16, FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	size := c.Size()
	const workers = 16
	span := int(size / workers / 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := payload(make([]byte, span), g)
			off := int64(g) * int64(span)
			<-start
			for i := 0; ; i++ {
				var err error
				if g%2 == 0 {
					_, err = c.WriteAt(buf, off)
				} else {
					_, err = c.ReadAt(buf, off)
				}
				// The call returned: the client must have released the
				// buffer entirely. Scribble over it at once — any late
				// ReadFull into it (or writev still holding it as an
				// iovec) is a race-detector hit.
				for j := range buf {
					buf[j] = byte(i)
				}
				if err != nil {
					if !errors.Is(err, serve.ErrClientClosed) && !errors.Is(err, io.EOF) {
						var re *serve.RemoteError
						if errors.As(err, &re) {
							t.Errorf("worker %d: unexpected remote error: %v", g, err)
						}
					}
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the pipeline fill
	c.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers did not unwind after Close")
	}
}

// TestStreamRoundTripLarge pushes a span large enough to split into
// multiple stream segments across multiple connections and checks the
// bytes against a mirror — the v2 data path end to end.
func TestStreamRoundTripLarge(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 4, unitSize, serve.Config{QueueDepth: 16, FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr, serve.WithConns(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.ProtocolVersion() != wire.Version2 || c.Features()&wire.FeatByteSpans == 0 {
		t.Fatalf("handshake: v%d feats %#x, want v2 byte spans", c.ProtocolVersion(), c.Features())
	}

	size := c.Size()
	span := int(size - 2*unitSize - 11)
	want := payload(make([]byte, span), 5)
	const off = int64(unitSize + 3) // unaligned head and tail around the stream
	if n, err := c.WriteAt(want, off); err != nil || n != span {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	got := make([]byte, span)
	if n, err := c.ReadAt(got, off); err != nil || n != span {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("diverges at byte %d of %d", i, span)
			}
		}
	}
}

// readGatedDisk holds every ReadAt while armed, until gate closes.
type readGatedDisk struct {
	store.Backend
	armed *atomic.Bool
	gate  chan struct{}
}

func (d *readGatedDisk) ReadAt(p []byte, off int64) (int, error) {
	if d.armed.Load() {
		<-d.gate
	}
	return d.Backend.ReadAt(p, off)
}

// TestConnSpanBound pins the server's per-connection read-span bound
// (32 streams in service): one connection opens 40 read spans while
// every disk read blocks, and only 32 of them may reach the Frontend.
// Once reads resume all 40 complete with the right bytes, and closing
// the connection leaves no server or client goroutine behind.
func TestConnSpanBound(t *testing.T) {
	const (
		unitSize  = 64
		spanUnits = 4 // longer than a unit: served by the span workers
		spans     = 40
		bound     = 32
		spanBytes = spanUnits * unitSize
	)
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.NewMapper(8 * res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	gate := make(chan struct{})
	backends := make([]store.Backend, m.Disks())
	for d := range backends {
		backends[d] = &readGatedDisk{Backend: store.NewMemDisk(int64(m.DiskUnits() * unitSize)), armed: &armed, gate: gate}
	}
	s, err := store.New(m, unitSize, backends)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() < spans*spanUnits {
		t.Fatalf("capacity %d units, want >= %d", s.Capacity(), spans*spanUnits)
	}
	f := serve.New(s, serve.Config{QueueDepth: 2 * spans, FlushDelay: -1})
	t.Cleanup(func() {
		f.Close()
		s.Close()
	})
	addr := startServer(t, f)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the server's Close, which waits for the spans

	before := runtime.NumGoroutine()
	c, err := serve.Dial(addr, serve.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	want := payload(make([]byte, spans*spanBytes), 9)
	if _, err := c.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	sub := f.Stats().Submitted
	armed.Store(true)
	got := make([]byte, len(want))
	errs := make(chan error, spans)
	for i := 0; i < spans; i++ {
		go func(b []byte, off int64) {
			n, err := c.ReadAt(b, off)
			if err == nil && n != len(b) {
				err = fmt.Errorf("ReadAt at %d: %d bytes, want %d", off, n, len(b))
			}
			errs <- err
		}(got[i*spanBytes:(i+1)*spanBytes], int64(i*spanBytes))
	}
	waitUntil(t, fmt.Sprintf("%d spans reach the frontend", bound), func() bool {
		return f.Stats().Submitted-sub >= bound
	})
	time.Sleep(50 * time.Millisecond) // room for a 33rd to arrive
	if d := f.Stats().Submitted - sub; d != bound {
		t.Errorf("%d span requests reached the frontend with reads blocked, want %d", d, bound)
	}

	release()
	for i := 0; i < spans; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Error("span bytes diverge")
	}
	c.Close()
	waitUntil(t, "the connection's goroutines exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestUnitAboveMaxChunkRoundTrips serves a unit larger than a frame: a
// one-unit read span must come back as ordered chunks of at most
// wire.MaxChunk bytes, never as one chunk past wire.MaxFrame that drops
// the connection, and a one-unit WriteAt and ReadAt through the client
// must round-trip.
func TestUnitAboveMaxChunkRoundTrips(t *testing.T) {
	const unitSize = 1<<20 + 4<<10
	f := mustFrontend(t, 4, 3, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Random bytes, not payload's 256-byte period, so a chunk delivered
	// at the wrong offset shows.
	want := make([]byte, unitSize)
	rand.New(rand.NewSource(1)).Read(want)
	const off = unitSize // unit 1
	if n, err := c.WriteAt(want, off); err != nil || n != unitSize {
		t.Fatalf("one-unit WriteAt: n=%d err=%v", n, err)
	}
	got := make([]byte, unitSize)
	if n, err := c.ReadAt(got, off); err != nil || n != unitSize {
		t.Fatalf("one-unit ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("one-unit round trip diverges")
	}

	rc := dialRawV2(t, addr)
	rc.send(t, &wire.Request{ID: 1, Op: wire.OpReadSpan, Arg: off, Payload: wire.AppendSpanLen(nil, unitSize)})
	got = got[:0]
	for len(got) < unitSize {
		resp := rc.recv(t)
		if resp.ID != 1 || resp.Status != wire.StatusChunk {
			t.Fatalf("after %d bytes: id %d status %d %q, want a StatusChunk", len(got), resp.ID, resp.Status, resp.Payload)
		}
		if len(resp.Payload) > wire.MaxChunk {
			t.Errorf("chunk of %d bytes, want at most wire.MaxChunk = %d", len(resp.Payload), wire.MaxChunk)
		}
		got = append(got, resp.Payload...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("raw one-unit read span diverges")
	}
}
