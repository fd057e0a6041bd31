package serve_test

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// spanHarness starts a MemDisk-backed server and a client for span tests.
func spanHarness(t *testing.T) *serve.Client {
	t.Helper()
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, 2*res.Layout.Size, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	front := serve.New(s, serve.Config{QueueDepth: 32})
	t.Cleanup(func() { front.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(front)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientSpans drives the client-side striping path: random
// ReadAt/WriteAt spans (unaligned heads and tails, multi-stripe middles)
// over the wire against a flat mirror of the logical space.
func TestClientSpans(t *testing.T) {
	c := spanHarness(t)
	unit := c.UnitSize()
	size := c.Size()
	mirror := make([]byte, size)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		off := int64(rng.Intn(int(size)))
		n := rng.Intn(8*unit) + 1
		if off+int64(n) > size {
			n = int(size - off)
		}
		p := make([]byte, n)
		rng.Read(p)
		wn, err := c.WriteAt(p, off)
		if err != nil || wn != n {
			t.Fatalf("WriteAt(%d, %d): n=%d err=%v", off, n, wn, err)
		}
		copy(mirror[off:], p)

		roff := int64(rng.Intn(int(size)))
		rn := rng.Intn(8*unit) + 1
		if roff+int64(rn) > size {
			rn = int(size - roff)
		}
		got := make([]byte, rn)
		gn, err := c.ReadAt(got, roff)
		if err != nil || gn != rn {
			t.Fatalf("ReadAt(%d, %d): n=%d err=%v", roff, rn, gn, err)
		}
		if !bytes.Equal(got, mirror[roff:roff+int64(rn)]) {
			t.Fatalf("ReadAt(%d, %d) diverges from mirror", roff, rn)
		}
	}

	// A whole-array span in one call each way.
	big := make([]byte, size)
	rng.Read(big)
	if n, err := c.WriteAt(big, 0); err != nil || int64(n) != size {
		t.Fatalf("full WriteAt: n=%d err=%v", n, err)
	}
	copy(mirror, big)
	got := make([]byte, size)
	if n, err := c.ReadAt(got, 0); err != nil || int64(n) != size {
		t.Fatalf("full ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("full-span round trip diverges")
	}

	// Span requests coalesce on the server: the batch counters must show
	// multi-op batches, not one batch per unit.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Frontend.Batches == 0 || st.Frontend.BatchedOps <= st.Frontend.Batches {
		t.Errorf("span traffic did not batch: %d ops in %d batches", st.Frontend.BatchedOps, st.Frontend.Batches)
	}

	// EOF edges mirror store.ReadAt: crossing the end returns the prefix
	// and io.EOF; at or past the end returns 0, io.EOF.
	tail := make([]byte, 2*unit)
	n, err := c.ReadAt(tail, size-int64(unit))
	if n != unit || err != io.EOF {
		t.Fatalf("ReadAt past end: n=%d err=%v, want %d, io.EOF", n, err, unit)
	}
	if !bytes.Equal(tail[:unit], mirror[size-int64(unit):]) {
		t.Fatal("tail prefix diverges")
	}
	if n, err := c.ReadAt(tail, size); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(size): n=%d err=%v, want 0, io.EOF", n, err)
	}
	if _, err := c.WriteAt(tail, size-int64(unit)); err == nil {
		t.Fatal("WriteAt past end accepted")
	}
	// An end past MaxInt64 must not wrap the bounds check: the client
	// refuses the write itself and sends the server nothing.
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.WriteAt(tail, math.MaxInt64-int64(unit)); n != 0 || err == nil || !strings.HasPrefix(err.Error(), "serve: WriteAt:") {
		t.Fatalf("WriteAt at MaxInt64-%d = %d, %v; want the client's range error", unit, n, err)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Frontend.Submitted != before.Frontend.Submitted || after.Frontend.Rejected != before.Frontend.Rejected {
		t.Fatalf("refused WriteAt reached the server: submitted %d -> %d, rejected %d -> %d",
			before.Frontend.Submitted, after.Frontend.Submitted, before.Frontend.Rejected, after.Frontend.Rejected)
	}
	if _, err := c.ReadAt(tail, -1); err == nil {
		t.Fatal("negative ReadAt accepted")
	}

	// Degraded spans: the same striping must serve from survivor XOR.
	if err := c.Fail(4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("degraded full-span read diverges")
	}
}

// TestDisjointWritersKeepBothHalves has two clients each write one half
// of the same unit, concurrently, round after round, then reads the unit
// back: neither write may undo the other. A client that patched partial
// units by reading the unit, patching and writing it back would lose one
// half whenever the two read-modify-writes interleave.
func TestDisjointWritersKeepBothHalves(t *testing.T) {
	const unitSize, rounds = 64, 2000
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{FlushDelay: -1})
	addr := startServer(t, f)
	var clients [2]*serve.Client
	for i := range clients {
		c, err := serve.Dial(addr, serve.WithConns(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	const half = unitSize / 2
	lost := 0
	got := make([]byte, unitSize)
	for r := 0; r < rounds; r++ {
		var halves [2][]byte
		errs := make(chan error, 2)
		for i, c := range clients {
			halves[i] = payload(make([]byte, half), 2*r+i)
			go func(c *serve.Client, p []byte, off int64) {
				_, err := c.WriteAt(p, off)
				errs <- err
			}(c, halves[i], int64(i*half))
		}
		for range clients {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if err := clients[0].Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:half], halves[0]) || !bytes.Equal(got[half:], halves[1]) {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d rounds lost one client's half of unit 0", lost, rounds)
	}
}
