package serve_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pdl/serve"
	"repro/pdl/serve/wire"
)

// rawV1Client speaks wire v1 by hand over one TCP connection — the
// protocol exactly as the previous client generation emitted it (plain
// OpInfo with Arg 0, one frame per request, synchronous) — so the tests
// prove a v2 server still serves v1 peers bit-for-bit.
type rawV1Client struct {
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

func dialRawV1(t *testing.T, addr string) *rawV1Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawV1Client{conn: conn, br: bufio.NewReader(conn)}
}

// do sends one v1 request frame and decodes the one response frame.
func (r *rawV1Client) do(t *testing.T, op uint8, arg uint64, payload []byte) wire.Response {
	t.Helper()
	r.id++
	frame := wire.AppendRequest(nil, &wire.Request{ID: r.id, Op: op, Arg: arg, Payload: payload})
	if _, err := r.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != r.id {
		t.Fatalf("response id %d for request %d", resp.ID, r.id)
	}
	return resp
}

// TestInteropV1ClientAgainstV2Server drives a hand-rolled v1 client
// against the current server: the plain Info payload (no version
// extension), unit writes and reads, and error responses must all be
// exactly what a v1 peer expects; a pre-byte-span v2 hello negotiates no
// feature.
func TestInteropV1ClientAgainstV2Server(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	addr := startServer(t, f)
	rc := dialRawV1(t, addr)

	// Info with Arg 0 (no hello) must answer the 20-byte v1 payload.
	resp := rc.do(t, wire.OpInfo, 0, nil)
	if resp.Status != wire.StatusOK {
		t.Fatalf("info status %d: %s", resp.Status, resp.Payload)
	}
	var in wire.Info
	if err := wire.DecodeInfo(resp.Payload, &in); err != nil {
		t.Fatalf("info payload is not plain v1: %v (%d bytes)", err, len(resp.Payload))
	}
	if in.UnitSize != unitSize || in.Capacity != f.Store().Capacity() {
		t.Fatalf("v1 info diverges: %+v", in)
	}

	// A v2 client from before byte spans proposes only bit 0, the
	// retired unit streams: it is answered with no feature, so it keeps
	// to the unit ops below.
	resp = rc.do(t, wire.OpInfo, wire.EncodeHello(wire.Version2, 1<<0), nil)
	if v, feats, err := wire.DecodeInfoAny(resp.Payload, &in); err != nil || v != wire.Version2 || feats != 0 {
		t.Fatalf("hello proposing bit 0: v%d features %#x, %v; want v2 and none", v, feats, err)
	}

	// Unit write and read round-trip.
	want := payload(make([]byte, unitSize), 7)
	if resp := rc.do(t, wire.OpWrite, 3, want); resp.Status != wire.StatusOK {
		t.Fatalf("write status %d: %s", resp.Status, resp.Payload)
	}
	resp = rc.do(t, wire.OpRead, 3, nil)
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, want) {
		t.Fatalf("read diverges: status %d, %d bytes", resp.Status, len(resp.Payload))
	}

	// Server-side errors still come back as v1 StatusErr frames.
	if resp := rc.do(t, wire.OpRead, uint64(f.Store().Capacity()+1), nil); resp.Status != wire.StatusErr {
		t.Fatalf("out-of-range read: status %d, want StatusErr", resp.Status)
	}
}

// startV1Server runs a minimal wire-v1 server — ReadFrame + full
// DecodeRequest, one response frame per request, no v2 ops, and Info
// answered with the plain payload whatever Arg says — the behavior of
// the previous server generation, admin ops included: one failed disk at
// most, and the Stats document of the time (no failed_disks, codec or
// parity_shards). Unit payloads and the failed disk are guarded by mu.
func startV1Server(t *testing.T, unitSize, capacity int) (addr string) {
	t.Helper()
	return startStubServer(t, func() (int, int) { return unitSize, capacity }, false)
}

// startStubServer is startV1Server answering every Info with the unit
// size and capacity geom returns at that moment, whatever they are. With
// spans it answers a v2 hello with wire.FeatByteSpans and serves byte
// spans over a sparse byte map, one chunk per read span.
func startStubServer(t *testing.T, geom func() (unitSize, capacity int), spans bool) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	units := make(map[int][]byte)
	bytesAt := make(map[uint64]byte)
	failed := -1
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var frame []byte
				streams := make(map[uint64]*wire.WriteStream)
				for {
					body, err := wire.ReadFrame(br, frame)
					if err != nil {
						return
					}
					frame = body
					var req wire.Request
					if err := wire.DecodeRequest(body, &req); err != nil {
						return
					}
					resp := wire.Response{ID: req.ID, Status: wire.StatusOK}
					switch req.Op {
					case wire.OpInfo:
						// A v1 server ignores Arg: always the plain payload.
						unitSize, capacity := geom()
						mu.Lock()
						in := wire.Info{UnitSize: unitSize, Capacity: capacity, Disks: 13, Failed: failed}
						mu.Unlock()
						if v, feats := wire.DecodeHello(req.Arg); spans && v >= wire.Version2 {
							resp.Payload = wire.AppendInfoV2(nil, &in, wire.Version2, feats&wire.FeatByteSpans)
						} else {
							resp.Payload = wire.AppendInfo(nil, &in)
						}
					case wire.OpReadSpan, wire.OpWriteSpan, wire.OpWriteChunk:
						if !spans {
							resp.Status = wire.StatusErr
							resp.Payload = []byte("unknown op")
							break
						}
						n, _ := wire.DecodeSpanLen(req.Payload)
						switch req.Op {
						case wire.OpReadSpan:
							resp.Status = wire.StatusChunk
							resp.Payload = make([]byte, n)
							mu.Lock()
							for i := range resp.Payload {
								resp.Payload[i] = bytesAt[req.Arg+uint64(i)]
							}
							mu.Unlock()
						case wire.OpWriteSpan:
							streams[req.ID] = &wire.WriteStream{Start: req.Arg, Len: n}
							continue // answered once its chunks are in
						default:
							ws := streams[req.ID]
							if ws == nil || ws.Consume(req.Arg, len(req.Payload)) != nil {
								return
							}
							mu.Lock()
							for i, b := range req.Payload {
								bytesAt[req.Arg+uint64(i)] = b
							}
							mu.Unlock()
							if !ws.Done() {
								continue
							}
							delete(streams, req.ID)
						}
					case wire.OpRead:
						mu.Lock()
						b, ok := units[int(req.Arg)]
						mu.Unlock()
						if !ok {
							unitSize, _ := geom()
							b = make([]byte, unitSize)
						}
						resp.Payload = b
					case wire.OpWrite:
						b := append([]byte(nil), req.Payload...)
						mu.Lock()
						units[int(req.Arg)] = b
						mu.Unlock()
					case wire.OpFail:
						mu.Lock()
						if failed >= 0 {
							resp.Status = wire.StatusErr
							resp.Payload = []byte("a disk is already failed")
						} else {
							failed = int(req.Arg)
						}
						mu.Unlock()
					case wire.OpRebuild:
						mu.Lock()
						failed = -1
						mu.Unlock()
					case wire.OpStats:
						mu.Lock()
						resp.Payload = fmt.Appendf(nil, `{"store":{"failed_disk":%d,"rebuilding":false},"frontend":{}}`, failed)
						mu.Unlock()
					default:
						// v2 ops (spans, chunks) are unknown to a v1 server.
						resp.Status = wire.StatusErr
						resp.Payload = []byte("unknown op")
					}
					if _, err := conn.Write(wire.AppendResponse(nil, &resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestInteropV2ClientAgainstV1Server dials a v1-only server with the
// current client. Every client data op is a byte span, which a v1 server
// cannot serve and which the client will not emulate with unit-op
// read-modify-writes, so Dial must refuse the server and name the
// missing feature.
func TestInteropV2ClientAgainstV1Server(t *testing.T) {
	const unitSize, capacity = 64, 256
	addr := startV1Server(t, unitSize, capacity)
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a v1 server")
	}
	if !strings.Contains(err.Error(), "FeatByteSpans") {
		t.Fatalf("Dial against a v1 server: %v, want the missing feature named", err)
	}
}

// TestClientRejectsUnusableGeometry pins that a server answering Info
// with a unit size of zero, or a capacity that decodes negative, is
// refused by the handshake instead of making ReadAt and WriteAt divide
// by zero.
func TestClientRejectsUnusableGeometry(t *testing.T) {
	var unitSize, capacity atomic.Int64
	addr := startStubServer(t, func() (int, int) { return int(unitSize.Load()), int(capacity.Load()) }, true)
	for _, g := range [][2]int64{{0, 256}, {64, -1}} {
		unitSize.Store(g[0])
		capacity.Store(g[1])
		c, err := serve.Dial(addr, serve.WithConns(1))
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted unit size %d, capacity %d", g[0], g[1])
		}
		if !strings.Contains(err.Error(), "not a usable geometry") {
			t.Fatalf("Dial against unit size %d, capacity %d: %v", g[0], g[1], err)
		}
	}
}
