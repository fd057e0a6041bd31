package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/pdl/serve/wire"
)

// FuzzDecodeRequest throws arbitrary bodies at the request decoder: it
// must never panic, and everything it accepts must re-encode to the
// same body (the round-trip property). The v2 ops ride the same body
// format, so they are covered here too; accepted span ops additionally
// have their byte-length payload decoded, and the header-only decoder
// (DecodeRequestHeader, the server's streaming read path) must agree
// with the full decoder on every accepted frame. Run as a CI smoke
// with -fuzztime 10s.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, wire.ReqHeaderLen))
	for _, seed := range []wire.Request{
		{ID: 1, Op: wire.OpInfo},
		{ID: 2, Op: wire.OpInfo, Arg: wire.EncodeHello(wire.Version2, wire.FeatByteSpans)},
		// Ops 2 and 3, wire v1's reserved unit read and write.
		{ID: 42, Op: 2, Class: 1, Arg: 7},
		{ID: 9, Op: 3, Arg: 3, Payload: []byte("payload")},
		{ID: 8, Op: wire.OpStats, Class: 200, Arg: ^uint64(0)},
		{ID: 7, Op: wire.OpReadSpan, Arg: 5, Payload: wire.AppendSpanLen(nil, 16)},
		{ID: 6, Op: wire.OpWriteSpan, Arg: 5, Payload: wire.AppendSpanLen(nil, 1<<20)},
		{ID: 6, Op: wire.OpWriteChunk, Arg: 5, Payload: bytes.Repeat([]byte{0xAA}, 128)},
		{ID: 5, Op: wire.OpReadSpan, Arg: 1<<32 + 3, Payload: wire.AppendSpanLen(nil, wire.MaxSpanBytes)},
	} {
		f.Add(wire.AppendRequest(nil, &seed)[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.Request
		if err := wire.DecodeRequest(body, &req); err != nil {
			return
		}
		re := wire.AppendRequest(nil, &req)
		if !bytes.Equal(re[4:], body) {
			t.Fatalf("round trip diverges:\n in %x\nout %x", body, re[4:])
		}
		var again wire.Request
		if err := wire.DecodeRequest(re[4:], &again); err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}

		// The header-only decoder must agree with the full decoder.
		var hreq wire.Request
		n, err := wire.DecodeRequestHeader(re[:wire.ReqFrameHeaderLen], &hreq)
		if err != nil {
			t.Fatalf("header decoder rejects an accepted frame: %v", err)
		}
		if n != len(req.Payload) || hreq.ID != req.ID || hreq.Op != req.Op || hreq.Class != req.Class || hreq.Arg != req.Arg {
			t.Fatalf("header decoder diverges: n=%d %+v vs %+v", n, hreq, req)
		}

		// Span ops: the length payload decoder must never panic, and an
		// accepted length must lie in [1, MaxSpanBytes] and re-encode
		// identically.
		if req.Op == wire.OpReadSpan || req.Op == wire.OpWriteSpan {
			n, err := wire.DecodeSpanLen(req.Payload)
			if err != nil {
				return
			}
			if n < 1 || n > wire.MaxSpanBytes {
				t.Fatalf("span length %d accepted outside [1,%d]", n, wire.MaxSpanBytes)
			}
			if !bytes.Equal(wire.AppendSpanLen(nil, n), req.Payload) {
				t.Fatalf("span length round trip diverges: %d from %x", n, req.Payload)
			}
		}
	})
}

// FuzzWriteStream drives the chunked write-stream sequencer with
// hostile frame sequences — wrong-offset chunks, empty chunks, chunks
// past the declared length, frames interleaved across two stream ids —
// and checks its invariants: consumed bytes never exceed the declared
// length, accepted chunks are non-empty and exactly sequential, every
// in-sequence chunk that fits is accepted, Done() iff every byte
// arrived, and a rejected chunk leaves the stream state untouched. The
// input is the two streams' declared lengths and a frame script of
// 4-byte records: stream(1) argDelta(1, signed) length(2). Run as a CI
// smoke.
func FuzzWriteStream(f *testing.F) {
	// A clean two-chunk stream, an interleaved pair, and a hostile mix.
	f.Add(uint16(64), uint16(128), []byte{0, 0, 0, 32, 0, 0, 0, 32, 1, 0, 0, 128})
	f.Add(uint16(1), uint16(1), []byte{0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1})
	f.Add(uint16(3), uint16(0), []byte{0, 255, 255, 9, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, len0, len1 uint16, script []byte) {
		streams := [2]wire.WriteStream{
			{Start: 100, Len: int(len0)},
			{Start: 1<<32 + 5000, Len: int(len1)},
		}
		consumed := [2]int{}
		for len(script) >= 4 {
			rec := script[:4]
			script = script[4:]
			s := int(rec[0]) & 1
			ws := &streams[s]
			// argDelta biases around the expected next byte so the fuzzer
			// can find both the valid path and near-miss offsets.
			argDelta := int64(int8(rec[1]))
			arg := uint64(int64(ws.Next()) + argDelta)
			n := int(binary.BigEndian.Uint16(rec[2:4]))
			before := *ws
			err := ws.Consume(arg, n)
			if err != nil {
				if *ws != before {
					t.Fatalf("rejected chunk mutated stream: %+v -> %+v", before, *ws)
				}
				if argDelta == 0 && n >= 1 && n <= before.Remaining() {
					t.Fatalf("in-sequence chunk of %d bytes with %d remaining rejected: %v", n, before.Remaining(), err)
				}
				continue
			}
			if argDelta != 0 {
				t.Fatalf("non-sequential chunk accepted: delta %d", argDelta)
			}
			if n == 0 || n > wire.MaxChunk {
				t.Fatalf("chunk of %d bytes accepted", n)
			}
			consumed[s] += n
			if consumed[s] > ws.Len {
				t.Fatalf("stream %d over-consumed: %d of %d bytes", s, consumed[s], ws.Len)
			}
			if ws.Remaining() != ws.Len-consumed[s] {
				t.Fatalf("remaining diverges: %d vs %d", ws.Remaining(), ws.Len-consumed[s])
			}
			if ws.Done() != (consumed[s] == ws.Len) {
				t.Fatalf("Done()=%v with %d of %d bytes", ws.Done(), consumed[s], ws.Len)
			}
		}
	})
}
