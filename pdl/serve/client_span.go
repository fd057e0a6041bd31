package serve

import (
	"fmt"
	"io"

	"repro/pdl/serve/wire"
)

// spanWindow bounds how many segments a ReadAt/WriteAt span keeps in
// flight at once: enough concurrency to fill server batches, bounded so
// one huge span cannot monopolize client memory or starve the
// connection.
const spanWindow = 64

// maxSegUnits caps one span segment, in units. Spans larger than this
// split into several segments striped round-robin across the client's
// connections, so a single big span uses every TCP window.
const maxSegUnits = 256

// streamChunkBytes is the most bytes one stream chunk carries for a unit
// size: the largest whole-unit run up to wire.MaxChunk, or MaxChunk
// itself when a unit is larger.
func streamChunkBytes(unit int) int {
	if cb := wire.MaxChunk / unit * unit; cb > 0 {
		return cb
	}
	return wire.MaxChunk
}

// runLen is how many of n bytes at off fit before the next multiple of
// lim: segments and chunks end there, so the runs of a span stay
// unit-aligned wherever the span itself is.
func runLen(off int64, n, lim int) int {
	return int(min(int64(n), int64(lim)-off%int64(lim)))
}

// Size returns the server's logical byte capacity (Capacity × UnitSize).
func (c *Client) Size() int64 { return int64(c.info.Capacity) * int64(c.info.UnitSize) }

// flight is one in-flight segment of a span: one OpReadSpan or
// OpWriteSpan stream of n bytes.
type flight struct {
	cl *call
	n  int
}

// Span is one started ReadAt or WriteAt: its segments are in flight on
// the client's connections. StartReadAt and StartWriteAt return it from
// a pool and Wait settles it and puts it back, so starting a span
// allocates nothing and a caller can have spans on several clients in
// flight from one goroutine.
type Span struct {
	c   *Client
	eof bool // a read clipped at the end of the array

	ring           [spanWindow]flight
	head, inflight int

	n   int   // contiguous bytes confirmed from the span's start
	err error // the first failure; nothing past it counts
}

func (c *Client) getSpan() *Span {
	s := c.spanPool.Get().(*Span)
	s.c = c
	return s
}

// Wait settles every segment of the span and returns what ReadAt or
// WriteAt would have: the contiguous byte count confirmed from the
// span's start and the first failure (io.EOF for a read clipped at the
// end of the array). Call it exactly once; the Span is recycled and
// must not be used after.
func (s *Span) Wait() (int, error) {
	s.drain()
	n, err := s.n, s.err
	if err == nil && s.eof {
		err = io.EOF
	}
	c := s.c
	s.c, s.eof, s.head, s.n, s.err = nil, false, 0, 0, nil
	c.spanPool.Put(s)
	return n, err
}

// push adds a started segment, first waiting for the oldest when the
// window is full.
func (s *Span) push(f flight) {
	if s.inflight == spanWindow {
		s.settle()
	}
	s.ring[(s.head+s.inflight)%spanWindow] = f
	s.inflight++
}

// settle waits for the oldest in-flight segment. Every started segment
// is waited for, even past a failure: its frames and destination alias
// the caller's buffer, which the caller owns again once Wait returns.
func (s *Span) settle() {
	f := s.ring[s.head]
	s.ring[s.head] = flight{} // unpin the caller's buffer
	s.head = (s.head + 1) % spanWindow
	s.inflight--
	recv, err := s.c.waitSpan(f.cl)
	switch {
	case s.err != nil:
	case err != nil:
		// A read stream confirms the ordered prefix of bytes it delivered;
		// a write stream (applied all-or-error) confirms nothing.
		s.n += recv
		s.err = err
	default:
		s.n += f.n
	}
}

// drain settles every in-flight segment.
func (s *Span) drain() {
	for s.inflight > 0 {
		s.settle()
	}
}

// issue starts p, placed at byte off, as segments of at most maxSegUnits
// units, each one stream on the next connection, until a settled segment
// fails.
func (s *Span) issue(p []byte, off int64, unit int, class Class, write bool) {
	c := s.c
	for len(p) > 0 && s.err == nil {
		n := runLen(off, len(p), maxSegUnits*unit)
		var cl *call
		var err error
		if write {
			cl, err = c.startWriteSpan(c.pick(), off, p[:n], unit, class)
		} else {
			cl, err = c.startReadSpan(c.pick(), off, p[:n], class)
		}
		if err != nil {
			s.drain()
			if s.err == nil {
				s.err = err
			}
			return
		}
		s.push(flight{cl: cl, n: n})
		p, off = p[n:], off+int64(n)
	}
}

// ReadAt reads len(p) bytes from the logical byte space starting at off.
// The span moves as segments of up to 256 units striped across the
// client's connections, each a read stream whose chunks land directly in
// p; the server reads each chunk as one request, partial units included.
// Reads crossing the end of the array return the available prefix and
// io.EOF. On a request failure it returns the contiguous byte count
// confirmed before the failing offset.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.StartReadAt(p, off, Foreground).Wait()
}

// ReadAtClass is ReadAt with an explicit priority class.
func (c *Client) ReadAtClass(p []byte, off int64, class Class) (int, error) {
	return c.StartReadAt(p, off, class).Wait()
}

// StartReadAt starts ReadAtClass(p, off, class) and returns without
// waiting for it: Wait on the returned Span gives ReadAtClass's result.
// p belongs to the span until Wait returns. StartReadAt blocks only
// while the span has more segments than its window keeps in flight (64).
func (c *Client) StartReadAt(p []byte, off int64, class Class) *Span {
	s := c.getSpan()
	if off < 0 {
		s.err = fmt.Errorf("serve: ReadAt: negative offset %d", off)
		return s
	}
	size := c.Size()
	if off >= size {
		s.err = io.EOF
		return s
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
		s.eof = true
	}
	s.issue(p, off, c.info.UnitSize, class, false)
	return s
}

// WriteAt writes len(p) bytes to the logical byte space starting at off.
// The span moves as segments of up to 256 units striped across the
// client's connections, each a write stream whose chunks go out as
// iovecs straight from p. The server writes each chunk as one request:
// its stripe-aligned runs promote to Condition 5 full-stripe writes, and
// its partial head and tail units are written under their stripe's lock
// like any other piece. So each stripe's part of a chunk is atomic
// against concurrent writers and readers of that stripe, and bytes that
// no other writer touches are never undone; the span as a whole is not
// atomic across stripes. On a request failure it returns the contiguous
// byte count confirmed before the failing offset.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.StartWriteAt(p, off, Foreground).Wait()
}

// WriteAtClass is WriteAt with an explicit priority class.
func (c *Client) WriteAtClass(p []byte, off int64, class Class) (int, error) {
	return c.StartWriteAt(p, off, class).Wait()
}

// StartWriteAt starts WriteAtClass(p, off, class) and returns without
// waiting for it: Wait on the returned Span gives WriteAtClass's result,
// with the same per-stripe atomicity. p belongs to the span until Wait
// returns; its frames go out straight from it. StartWriteAt blocks only
// while the span has more segments than its window keeps in flight (64).
func (c *Client) StartWriteAt(p []byte, off int64, class Class) *Span {
	s := c.getSpan()
	if off < 0 {
		s.err = fmt.Errorf("serve: WriteAt: negative offset %d", off)
		return s
	}
	size := c.Size()
	if off > size-int64(len(p)) {
		s.err = fmt.Errorf("serve: WriteAt: %d bytes at %d outside array of %d bytes", len(p), off, size)
		return s
	}
	s.issue(p, off, c.info.UnitSize, class, true)
	return s
}

// startReadSpan opens one OpReadSpan stream of len(dst) bytes at off on
// cn: the server answers with ordered chunk frames the reader lands
// directly in dst.
func (c *Client) startReadSpan(cn *cconn, off int64, dst []byte, class Class) (*call, error) {
	c.readSpans.Add(1)
	cl := c.getCall()
	cl.dst = dst
	if _, err := c.register(cn, cl, wire.OpReadSpan, class, uint64(off), len(dst)); err != nil {
		return nil, err
	}
	return cl, nil
}

// startWriteSpan opens one OpWriteSpan stream of p at off on cn and
// enqueues its chunk frames, whose payloads alias p (no copy): the
// caller must keep p valid until the call completes.
func (c *Client) startWriteSpan(cn *cconn, off int64, p []byte, unit int, class Class) (*call, error) {
	c.writeStreams.Add(1)
	cl := c.getCall()
	id, err := c.register(cn, cl, wire.OpWriteSpan, class, uint64(off), len(p))
	if err != nil {
		return nil, err
	}
	cb := streamChunkBytes(unit)
	for len(p) > 0 {
		n := runLen(off, len(p), cb)
		fr := c.framePool.Get().(*frame)
		fr.hn = len(wire.AppendRequestHeader(fr.hdr[:0], &wire.Request{ID: id, Op: wire.OpWriteChunk, Class: uint8(class), Arg: uint64(off)}, n))
		fr.payload = p[:n]
		if err := cn.enqueue(fr, id); err != nil {
			// The connection died and we re-own the call; the partial
			// stream dies with the connection.
			c.putCall(cl)
			return nil, err
		}
		p, off = p[n:], off+int64(n)
	}
	return cl, nil
}
