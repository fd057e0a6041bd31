package serve

import (
	"fmt"
	"io"

	"repro/pdl/serve/wire"
)

// spanWindow bounds how many segments a ReadAt/WriteAt span keeps in
// flight at once: enough concurrency to fill server batches (and, for
// stripe-aligned unit writes, whole Condition 5 full-stripe promotions),
// bounded so one huge span cannot monopolize client memory or starve the
// connection.
const spanWindow = 64

const (
	// streamMinUnits is the smallest aligned middle worth a v2 stream;
	// below it pipelined unit ops are just as good and cheaper to set up.
	streamMinUnits = 4

	// maxSegUnits caps one stream segment. Spans larger than this split
	// into several segments striped round-robin across the client's
	// connections, so a single big span uses every TCP window.
	maxSegUnits = 256
)

// streamChunkBytes is the largest whole-unit chunk payload (floor one
// unit — a unit above wire.MaxChunk travels as a single-unit chunk).
func streamChunkBytes(unit int) int {
	cb := wire.MaxChunk / unit * unit
	if cb < unit {
		cb = unit
	}
	return cb
}

// Size returns the server's logical byte capacity (Capacity × UnitSize).
func (c *Client) Size() int64 {
	in := c.geom()
	return int64(in.Capacity) * int64(in.UnitSize)
}

// Failed returns the failed disk, -1 when the array is healthy, as of
// the last geometry refresh: the handshake, this client's own Fail or
// Rebuild, or an explicit RefreshInfo. State changed by other clients is
// visible after RefreshInfo (or in Stats).
func (c *Client) Failed() int { return c.geom().Failed }

// flight is one in-flight segment of a span: a single-unit op or, on a
// link that negotiated streams, one OpReadSpan/OpWriteSpan stream.
type flight struct {
	cl *call

	// out and src land a partial-unit read: the op read the whole unit
	// into a scratch buffer, whose requested range src is copied to out (a
	// range of the span buffer) on completion. Both are nil for aligned
	// segments, which read directly into the span buffer.
	out, src []byte

	// n is the span bytes this segment accounts for.
	n int
}

// span is the state of one ReadAt/WriteAt call: its in-flight segments,
// oldest first, and the outcome so far.
type span struct {
	c    *Client
	unit int

	ring           [spanWindow]flight
	head, inflight int

	n   int   // contiguous bytes confirmed from the span's start
	err error // the first failure; nothing past it counts
}

// segUnits returns the size, in units, of the segments a span's
// unit-aligned middle moves in: streams of up to maxSegUnits units when
// the handshake negotiated them and the middle is at least streamMinUnits
// long; single-unit ops otherwise — always, against a v1 server.
func (c *Client) segUnits(plen int, off int64, unit int) int {
	if !c.useStreams {
		return 1
	}
	head := 0
	if w := int(off % int64(unit)); w != 0 {
		head = min(unit-w, plen)
	}
	if (plen-head)/unit < streamMinUnits {
		return 1
	}
	return maxSegUnits
}

// push adds a started segment, first waiting for the oldest when the
// window is full.
func (s *span) push(f flight) {
	if s.inflight == spanWindow {
		s.settle()
	}
	s.ring[(s.head+s.inflight)%spanWindow] = f
	s.inflight++
}

// settle waits for the oldest in-flight segment. Every started segment
// is waited for, even past a failure: its frames and destination alias
// the caller's buffer, which the caller owns again once the span returns.
func (s *span) settle() {
	f := s.ring[s.head]
	s.head = (s.head + 1) % spanWindow
	s.inflight--
	recv, err := s.c.waitSpan(f.cl)
	switch {
	case s.err != nil:
	case err != nil:
		// A read stream confirms the ordered prefix of units it delivered;
		// unit ops and write streams (applied all-or-error) confirm nothing.
		s.n += recv * s.unit
		s.err = err
	default:
		copy(f.out, f.src)
		s.n += f.n
	}
}

// drain settles every in-flight segment.
func (s *span) drain() {
	for s.inflight > 0 {
		s.settle()
	}
}

// fail records a failure to start the segment after the in-flight ones.
func (s *span) fail(err error) {
	s.drain()
	if s.err == nil {
		s.err = err
	}
}

// ReadAt reads len(p) bytes from the logical byte space starting at off.
// The span moves as pipelined segments striped across the client's
// connections. Against a v2 server, a large unit-aligned middle moves as
// chunked read streams (one OpReadSpan per segment, chunk payloads
// landing directly in p); the unit-unaligned edges — and everything,
// against a v1 server or on a short span — are unit-granularity requests,
// which the server frontend coalesces into ReadVec batch passes. Reads
// crossing the end of the array return the available prefix and io.EOF.
// On a request failure it returns the contiguous byte count confirmed
// before the failing offset.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtClass(p, off, Foreground)
}

// ReadAtClass is ReadAt with an explicit priority class.
func (c *Client) ReadAtClass(p []byte, off int64, class Class) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("serve: ReadAt: negative offset %d", off)
	}
	in := c.geom()
	unit := in.UnitSize
	size := int64(in.Capacity) * int64(unit)
	if off >= size {
		return 0, io.EOF
	}
	eof := false
	if off+int64(len(p)) > size {
		p = p[:size-off]
		eof = true
	}
	segUnits := c.segUnits(len(p), off, unit)
	s := span{c: c, unit: unit}
	for len(p) > 0 && s.err == nil {
		logical, within := uint64(off/int64(unit)), int(off%int64(unit))
		f := flight{n: min(unit-within, len(p))}
		var err error
		switch {
		case f.n < unit:
			// A partial unit (the span's head or tail): read it whole, aside.
			scratch := make([]byte, unit)
			f.out, f.src = p[:f.n], scratch[within:within+f.n]
			f.cl, err = c.start(wire.OpRead, class, logical, nil, scratch, nil)
		case segUnits == 1:
			f.cl, err = c.start(wire.OpRead, class, logical, nil, p[:unit], nil)
		default:
			k := min(segUnits, len(p)/unit)
			f.n = k * unit
			f.cl, err = c.startReadSpan(c.pick(), int(logical), k, p[:f.n], class)
		}
		if err != nil {
			s.fail(err)
			break
		}
		s.push(f)
		p, off = p[f.n:], off+int64(f.n)
	}
	s.drain()
	if s.err != nil {
		return s.n, s.err
	}
	if eof {
		return s.n, io.EOF
	}
	return s.n, nil
}

// WriteAt writes len(p) bytes to the logical byte space starting at off.
// The span moves as pipelined segments striped across the client's
// connections. Against a v2 server, a large unit-aligned middle moves as
// chunked write streams (one OpWriteSpan + OpWriteChunk sequence per
// segment, chunk payloads sent as iovecs straight from p); otherwise —
// always, against a v1 server — it is unit-granularity requests the
// server frontend coalesces into WriteVec batch passes, with
// stripe-aligned spans promoting to single Condition 5 full-stripe
// writes. Unit-unaligned head and tail edges are client-side
// read-modify-writes, so a span is not atomic against concurrent writers
// of the same units. On a request failure it returns the contiguous byte
// count confirmed before the failing offset.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtClass(p, off, Foreground)
}

// WriteAtClass is WriteAt with an explicit priority class.
func (c *Client) WriteAtClass(p []byte, off int64, class Class) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("serve: WriteAt: negative offset %d", off)
	}
	in := c.geom()
	unit := in.UnitSize
	size := int64(in.Capacity) * int64(unit)
	if off+int64(len(p)) > size {
		return 0, fmt.Errorf("serve: WriteAt: [%d,%d) outside array of %d bytes", off, off+int64(len(p)), size)
	}
	segUnits := c.segUnits(len(p), off, unit)
	s := span{c: c, unit: unit}
	for len(p) > 0 && s.err == nil {
		logical, within := uint64(off/int64(unit)), int(off%int64(unit))
		n := min(unit-within, len(p))
		if n < unit {
			// A partial unit (the span's head or tail): a synchronous
			// read-modify-write, issued once everything before it is
			// confirmed.
			s.drain()
			if s.err != nil {
				break
			}
			if s.err = c.rmwUnit(int64(logical), within, p[:n], class); s.err != nil {
				break
			}
			s.n += n
		} else {
			// Payload frames alias p until the segment is settled.
			var cl *call
			var err error
			if segUnits == 1 {
				cl, err = c.start(wire.OpWrite, class, logical, p[:n], nil, nil)
			} else {
				n = min(segUnits, len(p)/unit) * unit
				cl, err = c.startWriteSpan(c.pick(), int(logical), p[:n], unit, class)
			}
			if err != nil {
				s.fail(err)
				break
			}
			s.push(flight{cl: cl, n: n})
		}
		p, off = p[n:], off+int64(n)
	}
	s.drain()
	return s.n, s.err
}

// startReadSpan opens one OpReadSpan stream on cn: the server answers
// with ordered chunk frames the reader lands directly in dst.
func (c *Client) startReadSpan(cn *cconn, startUnit, units int, dst []byte, class Class) (*call, error) {
	if err := cn.err(); err != nil {
		return nil, err
	}
	c.readSpans.Add(1)
	cl := c.getCall()
	cl.dst = dst
	cl.units = units
	cl.unit = len(dst) / units
	id := cn.pend.put(cl)
	fr := c.framePool.Get().(*frame)
	h := wire.AppendRequestHeader(fr.hdr[:0], &wire.Request{ID: id, Op: wire.OpReadSpan, Class: uint8(class), Arg: uint64(startUnit)}, wire.SpanCountLen)
	h = wire.AppendSpanCount(h, units)
	fr.hn = len(h)
	fr.payload = nil
	if err := cn.enqueue(fr, id); err != nil {
		c.putCall(cl)
		return nil, err
	}
	return cl, nil
}

// startWriteSpan opens one OpWriteSpan stream on cn and enqueues its
// chunk frames, whose payloads alias p (no copy): the caller must keep
// p valid until the call completes.
func (c *Client) startWriteSpan(cn *cconn, startUnit int, p []byte, unit int, class Class) (*call, error) {
	if err := cn.err(); err != nil {
		return nil, err
	}
	units := len(p) / unit
	c.writeStreams.Add(1)
	cl := c.getCall()
	id := cn.pend.put(cl)
	fr := c.framePool.Get().(*frame)
	h := wire.AppendRequestHeader(fr.hdr[:0], &wire.Request{ID: id, Op: wire.OpWriteSpan, Class: uint8(class), Arg: uint64(startUnit)}, wire.SpanCountLen)
	h = wire.AppendSpanCount(h, units)
	fr.hn = len(h)
	fr.payload = nil
	if err := cn.enqueue(fr, id); err != nil {
		c.putCall(cl)
		return nil, err
	}
	cb := streamChunkBytes(unit)
	for off := 0; off < len(p); off += cb {
		n := min(cb, len(p)-off)
		cfr := c.framePool.Get().(*frame)
		ch := wire.AppendRequestHeader(cfr.hdr[:0], &wire.Request{ID: id, Op: wire.OpWriteChunk, Class: uint8(class), Arg: uint64(startUnit + off/unit)}, n)
		cfr.hn = len(ch)
		cfr.payload = p[off : off+n]
		if err := cn.enqueue(cfr, id); err != nil {
			// The connection died and we re-own the call; the partial
			// stream dies with the connection.
			c.putCall(cl)
			return nil, err
		}
	}
	return cl, nil
}

// rmwUnit writes bytes [within, within+len(chunk)) of one logical unit
// by reading the unit, patching the range, and writing it back.
func (c *Client) rmwUnit(logical int64, within int, chunk []byte, class Class) error {
	buf := make([]byte, c.UnitSize())
	if err := c.do(wire.OpRead, class, uint64(logical), nil, buf, nil); err != nil {
		return err
	}
	copy(buf[within:], chunk)
	return c.do(wire.OpWrite, class, uint64(logical), buf, nil, nil)
}
