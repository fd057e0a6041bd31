//go:build !race

// The allocs regression gate (CI) for the serving front end: the
// steady-state synchronous request path (Do/Read/Write against a warm
// frontend) is allocation-bounded at zero per request — requests, batch
// slices, and executor scratch all recycle through pools. A regression
// fails `go test`. Excluded under -race: sync.Pool randomly drops items
// under the race detector.

package serve_test

import (
	"context"
	"testing"

	"repro/pdl/serve"
)

func TestServeHotPathAllocs(t *testing.T) {
	const unitSize = 1024
	f := mustFrontend(t, 17, 4, 4, unitSize, serve.Config{FlushDelay: -1})
	ctx := context.Background()
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	capacity := f.Store().Capacity()
	i := 0
	for w := 0; w < 64; w++ {
		if err := f.Write(ctx, w%capacity, src); err != nil {
			t.Fatal(err)
		}
		if err := f.Read(ctx, w%capacity, dst); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := f.Write(ctx, i%capacity, src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("serve Write allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := f.Read(ctx, i%capacity, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("serve Read allocates %v/op, want 0", n)
	}
}

// TestTCPHotPathAllocs gates the full network path: a synchronous unit
// write and read over a real localhost TCP connection, each a one-unit
// byte span — client encode, writev, server decode into pooled frame
// buffers and pooled stream state, store pass, pooled response, client
// demux into the caller's buffer — must allocate nothing end to end
// (AllocsPerRun counts every goroutine: both client loops, both server
// loops, the read-span workers, and the frontend). So must an aligned
// 16-unit ReadAt and WriteAt.
func TestTCPHotPathAllocs(t *testing.T) {
	const unitSize = 1024
	f := mustFrontend(t, 17, 4, 4, unitSize, serve.Config{FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	capacity := c.Capacity()
	// Warm every pool on every connection's loops.
	for w := 0; w < 256; w++ {
		if err := c.Write(w%capacity, src); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(w%capacity, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(400, func() {
		if err := c.Write(i%capacity, src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("TCP Write allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(400, func() {
		if err := c.Read(i%capacity, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("TCP Read allocates %v/op, want 0", n)
	}

	// An aligned 16-unit span moves as one byte span whose chunk the
	// server submits as one request.
	const spanUnits = 16
	span := make([]byte, spanUnits*unitSize)
	spans := capacity / spanUnits
	for w := 0; w < 64; w++ {
		off := int64(w%spans) * int64(len(span))
		if _, err := c.WriteAt(span, off); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(span, off); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.WriteAt(span, int64(i%spans)*int64(len(span))); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("TCP stream WriteAt allocates %v/span, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.ReadAt(span, int64(i%spans)*int64(len(span))); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("TCP stream ReadAt allocates %v/span, want 0", n)
	}
}
