package serve_test

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pdl/serve"
	"repro/pdl/serve/wire"
)

// refuseV1 sends a wire v1 client's requests on rc — the hello (OpInfo
// with Arg 0), a unit read (op 2) and a unit write (op 3) — and fails
// unless each is answered with StatusErr carrying wire.ErrV1Retired.
func refuseV1(t *testing.T, rc *rawV2Conn, unitSize int) {
	t.Helper()
	for _, req := range []wire.Request{
		{ID: 1, Op: wire.OpInfo},
		{ID: 2, Op: 2, Arg: 3},
		{ID: 3, Op: 3, Arg: 3, Payload: make([]byte, unitSize)},
	} {
		rc.send(t, &req)
		resp := rc.recv(t)
		if resp.ID != req.ID || resp.Status != wire.StatusErr || string(resp.Payload) != wire.ErrV1Retired.Error() {
			t.Fatalf("v1 op %d: id %d status %d %q, want StatusErr %q", req.Op, resp.ID, resp.Status, resp.Payload, wire.ErrV1Retired)
		}
	}
}

// TestInteropV1ClientAgainstV2Server sends a wire v1 client's hello, unit
// read and unit write to the current server: each is refused with
// wire.ErrV1Retired, and the same connection then completes a v2 hello
// and a byte-span round trip.
func TestInteropV1ClientAgainstV2Server(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 8, FlushDelay: -1})
	rc := dialRawV2(t, startServer(t, f))
	refuseV1(t, rc, unitSize)

	// A v2 client from before byte spans proposes only bit 0, the
	// retired unit streams: it is answered with no feature.
	var in wire.Info
	rc.send(t, &wire.Request{ID: 4, Op: wire.OpInfo, Arg: wire.EncodeHello(wire.Version2, 1<<0)})
	if v, feats, err := wire.DecodeInfo(rc.recv(t).Payload, &in); err != nil || v != wire.Version2 || feats != 0 {
		t.Fatalf("hello proposing bit 0: v%d features %#x, %v; want v2 and none", v, feats, err)
	}
	rc.send(t, &wire.Request{ID: 5, Op: wire.OpInfo, Arg: wire.EncodeHello(wire.Version2, wire.Features)})
	resp := rc.recv(t)
	v, feats, err := wire.DecodeInfo(resp.Payload, &in)
	if resp.Status != wire.StatusOK || err != nil || v != wire.Version2 || feats != wire.FeatByteSpans {
		t.Fatalf("v2 hello: status %d, v%d features %#x, %v", resp.Status, v, feats, err)
	}
	if in.UnitSize != unitSize || in.Capacity != f.Store().Capacity() || in.Disks != 13 {
		t.Fatalf("v2 info diverges: %+v", in)
	}

	// A span with unaligned edges across two units.
	want := payload(make([]byte, unitSize+10), 7)
	start := uint64(unitSize / 2)
	if resp := rc.writeSpan(t, 6, start, want); resp.ID != 6 || resp.Status != wire.StatusOK {
		t.Fatalf("write span: id %d status %d: %s", resp.ID, resp.Status, resp.Payload)
	}
	if resp := rc.readSpan(t, 7, start, len(want)); resp.ID != 7 || resp.Status != wire.StatusChunk || !bytes.Equal(resp.Payload, want) {
		t.Fatalf("read span: id %d status %d, %d bytes; want one chunk of the %d written", resp.ID, resp.Status, len(resp.Payload), len(want))
	}
}

// startV1Server runs the handshake of a wire v1 server: every OpInfo,
// whatever its Arg, is answered with the 20-byte v1 Info.
func startV1Server(t *testing.T, unitSize, capacity int) (addr string) {
	t.Helper()
	return startStubServer(t, func() (int, int) { return unitSize, capacity }, false)
}

// startStubServer answers every OpInfo with the unit size and capacity
// geom returns at that moment, whatever they are: with spans, as the
// current server does a v2 hello (the Info accepting wire.FeatByteSpans);
// without, as a v1 server (the Info's first 20 bytes, the v1 layout).
// Every other op gets StatusErr: the tests using it end at the handshake.
func startStubServer(t *testing.T, geom func() (unitSize, capacity int), spans bool) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					body, err := wire.ReadFrame(br, nil)
					if err != nil {
						return
					}
					var req wire.Request
					if err := wire.DecodeRequest(body, &req); err != nil {
						return
					}
					resp := wire.Response{ID: req.ID, Status: wire.StatusErr, Payload: []byte("unknown op")}
					if req.Op == wire.OpInfo {
						unitSize, capacity := geom()
						in := wire.Info{UnitSize: unitSize, Capacity: capacity, Disks: 13}
						_, feats := wire.DecodeHello(req.Arg)
						resp.Status, resp.Payload = wire.StatusOK, wire.AppendInfo(nil, &in, wire.Version2, feats&wire.FeatByteSpans)
						if !spans {
							resp.Payload = resp.Payload[:20]
						}
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
// read-modify-writes, so Dial must refuse the server and say why.
func TestInteropV2ClientAgainstV1Server(t *testing.T) {
	const unitSize, capacity = 64, 256
	addr := startV1Server(t, unitSize, capacity)
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a v1 server")
	}
	if !strings.Contains(err.Error(), "wire v1") {
		t.Fatalf("Dial against a v1 server: %v, want the v1 answer named", err)
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
