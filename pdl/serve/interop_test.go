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
// exactly what a v1 peer expects.
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
	return startV1ServerGeom(t, func() (int, int) { return unitSize, capacity })
}

// startV1ServerGeom is startV1Server answering every Info with the unit
// size and capacity geom returns at that moment, whatever they are.
func startV1ServerGeom(t *testing.T, geom func() (unitSize, capacity int)) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	units := make(map[int][]byte)
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
						resp.Payload = wire.AppendInfo(nil, &wire.Info{
							UnitSize: unitSize, Capacity: capacity, Disks: 13, Failed: failed,
						})
						mu.Unlock()
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
// current client: the handshake must downgrade (version 1, no
// features), and spans — which would use streaming frames against a v2
// server — must fall back to per-unit ops and still move the right
// bytes.
func TestInteropV2ClientAgainstV1Server(t *testing.T) {
	const unitSize, capacity = 64, 256
	addr := startV1Server(t, unitSize, capacity)
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if v := c.ProtocolVersion(); v != wire.Version1 {
		t.Fatalf("negotiated version %d against a v1 server", v)
	}
	if feats := c.Features(); feats != 0 {
		t.Fatalf("negotiated features %#x against a v1 server", feats)
	}
	if c.UnitSize() != unitSize || c.Capacity() != capacity {
		t.Fatalf("geometry diverges: unit %d capacity %d", c.UnitSize(), c.Capacity())
	}

	// Unit ops.
	want := payload(make([]byte, unitSize), 3)
	if err := c.Write(5, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, unitSize)
	if err := c.Read(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("unit round trip diverges")
	}

	// A big unaligned span: stream-eligible geometry, but the downgraded
	// client must route it through per-unit ops the v1 server understands.
	span := payload(make([]byte, 20*unitSize+17), 9)
	const off = int64(3*unitSize + 5)
	if n, err := c.WriteAt(span, off); err != nil || n != len(span) {
		t.Fatalf("span WriteAt: n=%d err=%v", n, err)
	}
	back := make([]byte, len(span))
	if n, err := c.ReadAt(back, off); err != nil || n != len(span) {
		t.Fatalf("span ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(back, span) {
		t.Fatal("span round trip diverges through the v1 fallback")
	}
}

// TestClientRejectsUnusableGeometry pins that a server answering Info
// with a unit size of zero, or a capacity that decodes negative, is
// refused — by the handshake, and by RefreshInfo, which then keeps the
// geometry it had — instead of making ReadAt and WriteAt divide by zero.
func TestClientRejectsUnusableGeometry(t *testing.T) {
	var unitSize, capacity atomic.Int64
	addr := startV1ServerGeom(t, func() (int, int) { return int(unitSize.Load()), int(capacity.Load()) })
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

	unitSize.Store(64)
	capacity.Store(256)
	c, err := serve.Dial(addr, serve.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	unitSize.Store(0)
	if err := c.RefreshInfo(); err == nil || !strings.Contains(err.Error(), "not a usable geometry") {
		t.Fatalf("RefreshInfo against unit size 0: %v", err)
	}
	if c.UnitSize() != 64 || c.Size() != 64*256 {
		t.Fatalf("geometry after the refused refresh: unit %d, size %d", c.UnitSize(), c.Size())
	}
	unitSize.Store(64) // the stub sizes its own read answers by it
	span := payload(make([]byte, 3*64+5), 4)
	if n, err := c.WriteAt(span, 70); err != nil || n != len(span) {
		t.Fatalf("WriteAt after the refused refresh: n=%d err=%v", n, err)
	}
	back := make([]byte, len(span))
	if n, err := c.ReadAt(back, 70); err != nil || n != len(span) || !bytes.Equal(back, span) {
		t.Fatalf("ReadAt after the refused refresh: n=%d err=%v", n, err)
	}
}
