package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/pdl/serve/wire"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []wire.Request{
		{ID: 1, Op: wire.OpInfo},
		// Ops 2 and 3 (wire v1's unit read and write) are reserved but
		// still frame: the server answers them with ErrV1Retired.
		{ID: 42, Op: 2, Class: 1, Arg: 7},
		{ID: 1 << 60, Op: 3, Arg: 99, Payload: []byte("unit payload bytes")},
		{ID: 3, Op: wire.OpFail, Arg: 5},
		{ID: 4, Op: wire.OpRebuild},
		{ID: 5, Op: wire.OpStats},
	}
	for _, want := range cases {
		frame := wire.AppendRequest(nil, &want)
		if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
			t.Fatalf("op %d: length prefix %d, frame body %d", want.Op, got, len(frame)-4)
		}
		var got wire.Request
		if err := wire.DecodeRequest(frame[4:], &got); err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Class != want.Class || got.Arg != want.Arg || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("op %d: round trip diverges: %+v vs %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []wire.Response{
		{ID: 9, Status: wire.StatusOK},
		{ID: 10, Status: wire.StatusOK, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{ID: 11, Status: wire.StatusErr, Payload: []byte("disk 3 on fire")},
	}
	for _, want := range cases {
		frame := wire.AppendResponse(nil, &want)
		var got wire.Response
		if err := wire.DecodeResponse(frame[4:], &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.Status != want.Status || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip diverges: %+v vs %+v", got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	var req wire.Request
	if err := wire.DecodeRequest(make([]byte, wire.ReqHeaderLen-1), &req); err == nil {
		t.Error("short request body accepted")
	}
	bad := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: 200})
	if err := wire.DecodeRequest(bad[4:], &req); err == nil {
		t.Error("unknown op accepted")
	}
	var resp wire.Response
	if err := wire.DecodeResponse(make([]byte, wire.RespHeaderLen-1), &resp); err == nil {
		t.Error("short response body accepted")
	}
	badResp := wire.AppendResponse(nil, &wire.Response{ID: 1, Status: 9})
	if err := wire.DecodeResponse(badResp[4:], &resp); err == nil {
		t.Error("unknown status accepted")
	}
}

func TestReadFrame(t *testing.T) {
	var stream []byte
	stream = wire.AppendRequest(stream, &wire.Request{ID: 1, Op: wire.OpStats, Arg: 3})
	stream = wire.AppendRequest(stream, &wire.Request{ID: 2, Op: wire.OpWriteChunk, Arg: 4, Payload: []byte("abc")})
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for want := uint64(1); want <= 2; want++ {
		body, err := wire.ReadFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = body
		var req wire.Request
		if err := wire.DecodeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
		if req.ID != want {
			t.Fatalf("frame order: got id %d want %d", req.ID, want)
		}
	}
	if _, err := wire.ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("EOF: %v", err)
	}

	// Hostile length prefix.
	huge := binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(huge)), nil); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}

	// Truncated body.
	trunc := binary.BigEndian.AppendUint32(nil, 10)
	trunc = append(trunc, 1, 2, 3)
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(trunc)), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	want := wire.Info{UnitSize: 4096, Capacity: 123456, Disks: 17}
	b := wire.AppendInfo(nil, &want, wire.Version2, wire.FeatByteSpans)
	var got wire.Info
	v, feats, err := wire.DecodeInfo(b, &got)
	if err != nil || v != wire.Version2 || feats != wire.FeatByteSpans || got != want {
		t.Fatalf("round trip: v%d feats %#x info %+v err %v", v, feats, got, err)
	}
	// The word that was wire v1's lowest failed disk is sent as -1
	// (healthy), which a client of the first byte-span servers decodes.
	if r := binary.BigEndian.Uint32(b[16:20]); r != 0xFFFFFFFF {
		t.Fatalf("reserved word %#x, want 0xFFFFFFFF", r)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	// A v1 client's Arg 0 decodes as version 0, no features: below
	// Version2, so the server answers it with ErrV1Retired.
	if v, f := wire.DecodeHello(0); v != 0 || f != 0 {
		t.Fatalf("zero arg: got v%d feats %#x", v, f)
	}
	arg := wire.EncodeHello(wire.Version2, wire.FeatByteSpans)
	if arg == 0 {
		t.Fatal("v2 hello encodes to zero — indistinguishable from a v1 client")
	}
	if v, f := wire.DecodeHello(arg); v != wire.Version2 || f != wire.FeatByteSpans {
		t.Fatalf("hello round trip: got v%d feats %#x", v, f)
	}
}

// TestInfoAny pins that DecodeInfo takes the extended Info only: a wire
// v1 server's 20-byte answer is refused by name, and any other length is
// refused.
func TestInfoAny(t *testing.T) {
	b := wire.AppendInfo(nil, &wire.Info{UnitSize: 1024, Capacity: 99, Disks: 5}, wire.Version2, wire.FeatByteSpans)
	var got wire.Info
	if _, _, err := wire.DecodeInfo(b[:20], &got); err == nil || !strings.Contains(err.Error(), "wire v1") {
		t.Errorf("20-byte v1 info: %v, want it named a wire v1 answer", err)
	}
	if _, _, err := wire.DecodeInfo(b[:len(b)-1], &got); err == nil {
		t.Error("truncated info accepted")
	}
	if _, _, err := wire.DecodeInfo(append(b, 0), &got); err == nil {
		t.Error("oversized info accepted")
	}
}

func TestHeaderDecoders(t *testing.T) {
	req := wire.Request{ID: 77, Op: wire.OpWriteChunk, Class: 1, Arg: 12, Payload: bytes.Repeat([]byte{0xCD}, 64)}
	frame := wire.AppendRequest(nil, &req)
	var got wire.Request
	n, err := wire.DecodeRequestHeader(frame[:wire.ReqFrameHeaderLen], &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(req.Payload) || got.ID != req.ID || got.Op != req.Op || got.Class != req.Class || got.Arg != req.Arg {
		t.Fatalf("request header decode diverges: n=%d %+v", n, got)
	}
	// Split encoding matches the one-shot encoding.
	split := wire.AppendRequestHeader(nil, &req, len(req.Payload))
	if !bytes.Equal(split, frame[:wire.ReqFrameHeaderLen]) {
		t.Fatalf("AppendRequestHeader diverges from AppendRequest prefix:\n%x\n%x", split, frame[:wire.ReqFrameHeaderLen])
	}

	resp := wire.Response{ID: 78, Status: wire.StatusChunk, Payload: bytes.Repeat([]byte{0xEF}, 32)}
	rframe := wire.AppendResponse(nil, &resp)
	var gotR wire.Response
	n, err = wire.DecodeResponseHeader(rframe[:wire.RespFrameHeaderLen], &gotR)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(resp.Payload) || gotR.ID != resp.ID || gotR.Status != resp.Status {
		t.Fatalf("response header decode diverges: n=%d %+v", n, gotR)
	}
	splitR := wire.AppendResponseHeader(nil, resp.ID, resp.Status, len(resp.Payload))
	if !bytes.Equal(splitR, rframe[:wire.RespFrameHeaderLen]) {
		t.Fatalf("AppendResponseHeader diverges:\n%x\n%x", splitR, rframe[:wire.RespFrameHeaderLen])
	}

	// Hostile length prefixes.
	huge := binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)
	huge = append(huge, make([]byte, wire.ReqHeaderLen)...)
	if _, err := wire.DecodeRequestHeader(huge, &got); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized request header: %v", err)
	}
	tiny := binary.BigEndian.AppendUint32(nil, wire.ReqHeaderLen-1)
	tiny = append(tiny, make([]byte, wire.ReqHeaderLen)...)
	if _, err := wire.DecodeRequestHeader(tiny, &got); err == nil {
		t.Error("undersized request body length accepted")
	}
}

func TestSpanCount(t *testing.T) {
	b := wire.AppendSpanLen(nil, 12345)
	if n, err := wire.DecodeSpanLen(b); err != nil || n != 12345 {
		t.Fatalf("span length round trip: %d %v", n, err)
	}
	if _, err := wire.DecodeSpanLen(b[:3]); err == nil {
		t.Error("short span payload accepted")
	}
	if _, err := wire.DecodeSpanLen(wire.AppendSpanLen(nil, 0)); err == nil {
		t.Error("zero span length accepted")
	}
	if _, err := wire.DecodeSpanLen(wire.AppendSpanLen(nil, wire.MaxSpanBytes+1)); err == nil {
		t.Error("oversized span length accepted")
	}
	// A length with the top bit set must not wrap negative where int is
	// 32 bits.
	if _, err := wire.DecodeSpanLen([]byte{0x80, 0, 0, 1}); err == nil {
		t.Error("span length past 2^31 accepted")
	}
}

func TestWriteStream(t *testing.T) {
	ws := wire.WriteStream{Start: 10, Len: 5}

	// Sequential non-empty chunks inside the length are accepted,
	// anything else rejected.
	if err := ws.Consume(10, 2); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if err := ws.Consume(10, 1); err == nil {
		t.Error("replayed chunk accepted")
	}
	if err := ws.Consume(13, 1); err == nil {
		t.Error("chunk past a gap accepted")
	}
	if err := ws.Consume(12, 0); err == nil {
		t.Error("empty chunk accepted")
	}
	if err := ws.Consume(12, 4); err == nil {
		t.Error("over-length chunk accepted")
	}
	if err := ws.Consume(12, 3); err != nil {
		t.Fatalf("final chunk: %v", err)
	}
	if !ws.Done() || ws.Remaining() != 0 {
		t.Fatalf("stream not done after its length: remaining %d", ws.Remaining())
	}
	if err := ws.Consume(15, 1); err == nil {
		t.Error("chunk past end accepted")
	}
	big := wire.WriteStream{Start: 1 << 32, Len: 2 * wire.MaxChunk}
	if err := big.Consume(1<<32, wire.MaxChunk+1); err == nil {
		t.Error("chunk over MaxChunk accepted")
	}
	if err := big.Consume(1<<32, wire.MaxChunk); err != nil || big.Next() != 1<<32+wire.MaxChunk {
		t.Fatalf("MaxChunk chunk past 2^32: next %d, %v", big.Next(), err)
	}
}
