// Package wire defines the length-prefixed binary protocol between
// serve.Client and serve.Server.
//
// Every message is one frame: a 4-byte big-endian body length, then the
// body. A request body is
//
//	id(8) op(1) class(1) arg(8) payload(...)
//
// and a response body is
//
//	id(8) status(1) payload(...)
//
// all integers big-endian. id correlates a response with its request, so
// a connection may have many requests in flight and responses may arrive
// in any order. arg carries the operand (the hello for OpInfo, byte
// offset for the span ops, disk for OpFail, unused otherwise). payload
// carries a span's byte length and chunks, the error text for StatusErr
// responses, and op-specific encodings elsewhere (see the serve package).
//
// # Versioning
//
// The server speaks one protocol: wire version 2 with FeatByteSpans.
// A client opens each connection with OpInfo whose Arg is its hello
// (EncodeHello: its version and proposed feature bits), and the server
// answers with the Info, its own version and the accepted feature
// intersection (AppendInfo, DecodeInfo). A feature added later gets a new
// bit, and a client must not send its ops unless the handshake accepted
// that bit.
//
// Wire version 1 is retired. Its clients sent OpInfo with Arg 0 and moved
// data with the one-unit ops 2 (read) and 3 (write). The server answers
// all three with StatusErr carrying ErrV1Retired and keeps the
// connection. Ops 2 and 3 stay reserved, never renumbered. A v1 server
// answered the 20-byte Info without version and features; DecodeInfo
// refuses that answer by name, so a v2 client refuses such a server at
// dial. The Info word that was v1's lowest failed disk is reserved and
// sent as 0xFFFFFFFF, which a client of the first byte-span servers still
// decodes as healthy.
//
// # Byte-range spans (FeatByteSpans)
//
// FeatByteSpans moves any byte range of the logical space — a single
// unit, a partial unit, or many units with unaligned edges — as a stream
// of bounded chunk frames:
//
//   - OpReadSpan (Arg = first byte offset, payload = 4-byte byte
//     length, at most MaxSpanBytes): the server answers with ordered
//     StatusChunk frames sharing the request id, each carrying the next
//     run of at most MaxChunk bytes. The stream ends implicitly when the
//     declared length has been delivered, or terminally with StatusErr.
//   - OpWriteSpan (Arg = first byte offset, payload = 4-byte byte
//     length) opens a write stream. The data follows in OpWriteChunk
//     frames with the same id, each a run of 1..MaxChunk bytes with Arg =
//     the chunk's first byte offset, strictly sequential (WriteStream is
//     the canonical sequencing validator). One response — StatusOK or
//     StatusErr — acknowledges the whole stream.
//
// serve.Server applies each chunk as one request to the store, which
// writes a partial unit under the stripe lock like any other piece:
// there is no read-modify-write on the wire. Bit 0 (the unit-granularity
// streams of earlier v2 peers) is reserved and no longer accepted, so such
// a client negotiates no features.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Request ops.
const (
	// OpInfo is the handshake: Arg is the client's hello (EncodeHello),
	// and the response payload an Info (DecodeInfo). Arg 0, a v1 client's,
	// is answered with ErrV1Retired.
	OpInfo uint8 = 1 + iota

	// Ops 2 and 3, wire v1's unit read and write, are reserved: the
	// server answers them with ErrV1Retired.
	_
	_

	// OpFail marks disk Arg failed; refused while a rebuild runs.
	OpFail

	// OpRebuild rebuilds the lowest-numbered failed disk onto a
	// replacement. With several disks down, send it once per failed disk.
	OpRebuild

	// OpStats asks for server statistics; the response payload is JSON.
	OpStats

	// OpReadSpan (v2, FeatByteSpans) streams Payload's byte length back
	// as StatusChunk frames starting at byte offset Arg.
	OpReadSpan

	// OpWriteSpan (v2, FeatByteSpans) opens a write stream of Payload's
	// byte length starting at byte offset Arg.
	OpWriteSpan

	// OpWriteChunk (v2, FeatByteSpans) carries one write stream's next
	// run of bytes, Arg = the chunk's first byte offset.
	OpWriteChunk

	opMax = OpWriteChunk
)

// Response statuses.
const (
	// StatusOK carries the op's result payload.
	StatusOK uint8 = iota

	// StatusErr carries the error text as the payload.
	StatusErr

	// StatusChunk (v2, FeatByteSpans) carries one ordered chunk of an
	// OpReadSpan stream; the frame id names the stream.
	StatusChunk
)

// Version2 is the protocol version this package speaks: the hello
// handshake and feature-gated ops. Version 1 is retired.
const Version2 uint8 = 2

// Feature bits proposed and accepted in the hello handshake.
const (
	// FeatByteSpans enables the byte-range span ops (OpReadSpan,
	// OpWriteSpan, OpWriteChunk, StatusChunk). Bit 0 is reserved: it
	// named the unit-granularity streams of earlier v2 peers.
	FeatByteSpans uint64 = 1 << 1

	// Features is every feature this package implements — what a v2
	// endpoint proposes and the mask it accepts.
	Features = FeatByteSpans

	// helloFeatMask bounds the feature bits representable in a hello.
	helloFeatMask = 1<<56 - 1
)

const (
	// ReqHeaderLen is a request body's fixed prefix length.
	ReqHeaderLen = 8 + 1 + 1 + 8

	// RespHeaderLen is a response body's fixed prefix length.
	RespHeaderLen = 8 + 1

	// ReqFrameHeaderLen is a request frame's fixed prefix — the 4-byte
	// length plus the fixed request header — the unit a streaming reader
	// consumes before the payload.
	ReqFrameHeaderLen = 4 + ReqHeaderLen

	// RespFrameHeaderLen is a response frame's fixed prefix.
	RespFrameHeaderLen = 4 + RespHeaderLen

	// MaxFrame is the largest frame body either side accepts: it bounds
	// memory per connection against hostile length prefixes while
	// leaving room for a 1 MiB payload plus headers.
	MaxFrame = 1<<20 + ReqHeaderLen

	// MaxChunk is the most payload bytes one stream chunk frame carries.
	MaxChunk = 256 << 10

	// SpanLenLen is the encoded span byte-length length (the OpReadSpan
	// and OpWriteSpan payload).
	SpanLenLen = 4

	// MaxSpanBytes bounds one span stream's byte length against hostile
	// or absurd requests; real spans segment well below it.
	MaxSpanBytes = 1 << 28
)

// EncodeHello packs a client's protocol version and proposed feature
// bits into OpInfo's Arg. The result is never zero for version >= 1, so
// a hello is always distinguishable from a v1 client's Arg 0.
func EncodeHello(version uint8, features uint64) uint64 {
	return uint64(version)<<56 | (features & helloFeatMask)
}

// DecodeHello unpacks an OpInfo Arg. A v1 client's Arg 0 decodes as
// version 0, no features.
func DecodeHello(arg uint64) (version uint8, features uint64) {
	return uint8(arg >> 56), arg & helloFeatMask
}

// Request is a decoded request frame. Payload aliases the decode buffer;
// copy it to retain it past the next frame.
type Request struct {
	ID      uint64
	Op      uint8
	Class   uint8
	Arg     uint64
	Payload []byte
}

// Response is a decoded response frame. Payload aliases the decode
// buffer; copy it to retain it past the next frame.
type Response struct {
	ID      uint64
	Status  uint8
	Payload []byte
}

// AppendRequest appends r as a complete frame (length prefix included).
func AppendRequest(dst []byte, r *Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(ReqHeaderLen+len(r.Payload)))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, r.Op, r.Class)
	dst = binary.BigEndian.AppendUint64(dst, r.Arg)
	return append(dst, r.Payload...)
}

// DecodeRequest parses a request body (frame minus the length prefix)
// into r. r.Payload aliases body.
func DecodeRequest(body []byte, r *Request) error {
	if len(body) < ReqHeaderLen {
		return fmt.Errorf("wire: request body %d bytes, want >= %d", len(body), ReqHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(body)
	r.Op = body[8]
	r.Class = body[9]
	r.Arg = binary.BigEndian.Uint64(body[10:])
	r.Payload = body[ReqHeaderLen:]
	if r.Op < OpInfo || r.Op > opMax {
		return fmt.Errorf("wire: unknown op %d", r.Op)
	}
	return nil
}

// DecodeRequestHeader parses a request frame's fixed prefix (length
// plus header, ReqFrameHeaderLen bytes) into r and returns the payload
// length still to be read. r.Payload is left nil: the caller reads the
// payload into a buffer of its choosing — the zero-copy receive path.
func DecodeRequestHeader(hdr []byte, r *Request) (payloadLen int, err error) {
	if len(hdr) < ReqFrameHeaderLen {
		return 0, fmt.Errorf("wire: request frame header %d bytes, want %d", len(hdr), ReqFrameHeaderLen)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	if n < ReqHeaderLen {
		return 0, fmt.Errorf("wire: request body %d bytes, want >= %d", n, ReqHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(hdr[4:])
	r.Op = hdr[12]
	r.Class = hdr[13]
	r.Arg = binary.BigEndian.Uint64(hdr[14:])
	r.Payload = nil
	if r.Op < OpInfo || r.Op > opMax {
		return 0, fmt.Errorf("wire: unknown op %d", r.Op)
	}
	return int(n) - ReqHeaderLen, nil
}

// AppendRequestHeader appends a request frame's fixed prefix for a
// payload of payloadLen bytes sent separately (via writev): the frame is
// valid once exactly payloadLen payload bytes follow.
func AppendRequestHeader(dst []byte, r *Request, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(ReqHeaderLen+payloadLen))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, r.Op, r.Class)
	return binary.BigEndian.AppendUint64(dst, r.Arg)
}

// AppendResponse appends r as a complete frame (length prefix included).
func AppendResponse(dst []byte, r *Response) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(RespHeaderLen+len(r.Payload)))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, r.Status)
	return append(dst, r.Payload...)
}

// DecodeResponse parses a response body (frame minus the length prefix)
// into r. r.Payload aliases body.
func DecodeResponse(body []byte, r *Response) error {
	if len(body) < RespHeaderLen {
		return fmt.Errorf("wire: response body %d bytes, want >= %d", len(body), RespHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(body)
	r.Status = body[8]
	r.Payload = body[RespHeaderLen:]
	if r.Status > StatusChunk {
		return fmt.Errorf("wire: unknown status %d", r.Status)
	}
	return nil
}

// DecodeResponseHeader parses a response frame's fixed prefix (length
// plus header, RespFrameHeaderLen bytes) into r and returns the payload
// length still to be read, which the caller reads directly into its
// destination buffer — the zero-copy receive path.
func DecodeResponseHeader(hdr []byte, r *Response) (payloadLen int, err error) {
	if len(hdr) < RespFrameHeaderLen {
		return 0, fmt.Errorf("wire: response frame header %d bytes, want %d", len(hdr), RespFrameHeaderLen)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	if n < RespHeaderLen {
		return 0, fmt.Errorf("wire: response body %d bytes, want >= %d", n, RespHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(hdr[4:])
	r.Status = hdr[12]
	r.Payload = nil
	if r.Status > StatusChunk {
		return 0, fmt.Errorf("wire: unknown status %d", r.Status)
	}
	return int(n) - RespHeaderLen, nil
}

// AppendResponseHeader appends a response frame's fixed prefix for a
// payload of payloadLen bytes sent separately (via writev).
func AppendResponseHeader(dst []byte, id uint64, status uint8, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(RespHeaderLen+payloadLen))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, status)
}

// AppendSpanLen appends a span stream's byte length — the OpReadSpan
// and OpWriteSpan payload.
func AppendSpanLen(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// DecodeSpanLen parses an OpReadSpan/OpWriteSpan payload.
func DecodeSpanLen(payload []byte) (n int, err error) {
	if len(payload) != SpanLenLen {
		return 0, fmt.Errorf("wire: span payload %d bytes, want %d", len(payload), SpanLenLen)
	}
	// Compared as uint32: the length must not wrap negative where int is
	// 32 bits.
	v := binary.BigEndian.Uint32(payload)
	if v < 1 || v > MaxSpanBytes {
		return 0, fmt.Errorf("wire: span length %d outside [1,%d]", v, MaxSpanBytes)
	}
	return int(v), nil
}

// WriteStream validates and sequences one v2 write stream's chunks: the
// canonical chunked-stream decoder the server runs per open stream (and
// the fuzz target hammers). Chunks must be 1..MaxChunk bytes, stay inside
// the declared length, and arrive strictly sequentially.
type WriteStream struct {
	// Start is the stream's first byte offset; Len its declared length in
	// bytes.
	Start uint64
	Len   int

	consumed int
}

// Remaining returns the bytes not yet consumed.
func (w *WriteStream) Remaining() int { return w.Len - w.consumed }

// Next returns the byte offset the next chunk must start at.
func (w *WriteStream) Next() uint64 { return w.Start + uint64(w.consumed) }

// Done reports whether every declared byte has been consumed.
func (w *WriteStream) Done() bool { return w.consumed >= w.Len }

// Consume validates one chunk frame — arg is the frame's Arg, n its
// payload length — and accounts its bytes. A non-nil error means the
// stream is violated (the chunk was not consumed).
func (w *WriteStream) Consume(arg uint64, n int) error {
	if n < 1 || n > MaxChunk {
		return fmt.Errorf("wire: stream chunk %d bytes, want 1..%d", n, MaxChunk)
	}
	if n > w.Remaining() {
		return fmt.Errorf("wire: stream chunk of %d bytes exceeds remaining %d", n, w.Remaining())
	}
	if want := w.Next(); arg != want {
		return fmt.Errorf("wire: stream chunk starts at byte %d, want %d", arg, want)
	}
	w.consumed += n
	return nil
}

// ErrFrameTooLarge reports a length prefix above MaxFrame — a corrupt or
// hostile peer.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrV1Retired answers a wire v1 request: OpInfo with Arg 0, or one of
// the reserved ops 2 and 3.
var ErrV1Retired = errors.New("wire: v1 retired; dial with a v2 client")

// ReadFrame reads one frame body from r, reusing buf when it has the
// capacity; it returns the body (len == the frame's length prefix).
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Info is the geometry handshake payload answering OpInfo.
type Info struct {
	// UnitSize is the payload size of one stripe unit in bytes.
	UnitSize int

	// Capacity is the number of addressable logical data units.
	Capacity int

	// Disks is the number of disks in the array.
	Disks int
}

const (
	// infoV1Len is the 20-byte Info of a wire v1 server: unit(4)
	// capacity(8) disks(4) and its lowest failed disk(4).
	infoV1Len = 4 + 8 + 4 + 4

	// infoLen is the encoded Info: the v1 layout, its failed-disk word
	// reserved, then version(1) features(8).
	infoLen = infoV1Len + 1 + 8
)

// AppendInfo appends the Info encoding: in, the reserved word as
// 0xFFFFFFFF, the server's version and the accepted feature bits.
func AppendInfo(dst []byte, in *Info, version uint8, features uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(in.UnitSize))
	dst = binary.BigEndian.AppendUint64(dst, uint64(in.Capacity))
	dst = binary.BigEndian.AppendUint32(dst, uint32(in.Disks))
	dst = binary.BigEndian.AppendUint32(dst, 0xFFFFFFFF)
	dst = append(dst, version)
	return binary.BigEndian.AppendUint64(dst, features)
}

// DecodeInfo parses an Info encoding into in and returns the server's
// version and accepted feature bits. It refuses a wire v1 server's
// 20-byte answer by name.
func DecodeInfo(body []byte, in *Info) (version uint8, features uint64, err error) {
	switch len(body) {
	case infoLen:
	case infoV1Len:
		return 0, 0, fmt.Errorf("wire: %d-byte info is a wire v1 server's: no hello, no byte spans", len(body))
	default:
		return 0, 0, fmt.Errorf("wire: info payload %d bytes, want %d", len(body), infoLen)
	}
	in.UnitSize = int(binary.BigEndian.Uint32(body))
	in.Capacity = int(binary.BigEndian.Uint64(body[4:]))
	in.Disks = int(binary.BigEndian.Uint32(body[12:]))
	return body[infoV1Len], binary.BigEndian.Uint64(body[infoV1Len+1:]), nil
}
