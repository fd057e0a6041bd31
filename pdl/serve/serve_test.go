package serve_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// mustFrontend builds a MemDisk-backed store for (v, k) and a Frontend
// over it.
func mustFrontend(t testing.TB, v, k, copies, unitSize int, cfg serve.Config) *serve.Frontend {
	t.Helper()
	res, err := pdl.Build(v, k)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, copies*res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := serve.New(s, cfg)
	t.Cleanup(func() {
		f.Close()
		s.Close()
	})
	return f
}

func payload(buf []byte, seed int) []byte {
	for j := range buf {
		buf[j] = byte(seed*31 + j*7 + 1)
	}
	return buf
}

// TestFrontendReadWrite writes and reads every unit through the batching
// path and checks bytes and parity.
func TestFrontendReadWrite(t *testing.T) {
	const unitSize = 32
	// Immediate flush: sequential Do calls should not pay the deadline.
	f := mustFrontend(t, 13, 4, 2, unitSize, serve.Config{FlushDelay: -1})
	ctx := context.Background()
	buf := make([]byte, unitSize)
	for i := 0; i < f.Store().Capacity(); i++ {
		if err := f.Write(ctx, i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, unitSize)
	want := make([]byte, unitSize)
	for i := 0; i < f.Store().Capacity(); i++ {
		if err := f.Read(ctx, i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(want, i)) {
			t.Fatalf("logical %d diverges", i)
		}
	}
	// A 3-unit request is a run of consecutive units.
	run := payload(make([]byte, 3*unitSize), 99)
	if err := f.Write(ctx, 4, run); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(run))
	if err := f.Read(ctx, 4, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, run) {
		t.Fatal("3-unit run diverges")
	}
	if err := f.Read(ctx, 5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, run[unitSize:2*unitSize]) {
		t.Fatal("unit 5 of the run diverges")
	}
	if err := f.Store().VerifyParity(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Submitted == 0 || st.Completed != st.Submitted || st.Batches == 0 {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

// TestFrontendCoalescing proves concurrent small writes coalesce into
// full-stripe batches: a sequential write sweep submitted QueueDepth at
// a time must issue far fewer physical reads than one read-modify-write
// pair per op (a full sweep with no batching would issue 2 per op). It
// runs at the default worker count and at 16 workers, more than a test
// box has CPUs, so idle workers contend for the queue while a batch is
// open: a sweep's consecutive units must still share that batch.
func TestFrontendCoalescing(t *testing.T) {
	const unitSize = 64
	const depth = 32
	for _, tc := range []struct {
		name    string
		workers int
	}{{"default-workers", 0}, {"16-workers", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			f := mustFrontend(t, 9, 3, 2, unitSize, serve.Config{QueueDepth: depth, FlushDelay: 2 * time.Millisecond, Workers: tc.workers})
			ctx := context.Background()
			cap := f.Store().Capacity()
			bufs := make([][]byte, depth)
			for i := range bufs {
				bufs[i] = payload(make([]byte, unitSize), i)
			}
			for base := 0; base < cap; base += depth {
				n := depth
				if base+n > cap {
					n = cap - base
				}
				var wg sync.WaitGroup
				errs := make([]error, n)
				for j := 0; j < n; j++ {
					wg.Add(1)
					j := j
					if err := f.Go(ctx, serve.Op{Kind: serve.Write, Logical: base + j, Buf: bufs[j%depth]}, func(err error) {
						errs[j] = err
						wg.Done()
					}); err != nil {
						t.Fatal(err)
					}
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			var reads int64
			for _, d := range f.Store().Stats().Disks {
				reads += d.Reads
			}
			// Unbatched, the sweep would pre-read 2*cap units. Coalesced, whole
			// stripes promote to no-preread writes; only boundary stragglers pay.
			if reads >= int64(cap) {
				t.Errorf("sequential sweep issued %d pre-reads (unbatched would be %d); coalescing broken", reads, 2*cap)
			}
			if err := f.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
			st := f.Stats()
			if avg := float64(st.BatchedOps) / float64(st.Batches); avg < 2 {
				t.Errorf("mean batch size %.1f, want >= 2 (stats %+v)", avg, st)
			}
		})
	}
}

// gatedDisk wraps a Backend, blocking every write while the gate is
// shut — a way to hold the workers busy and fill the queues.
type gatedDisk struct {
	store.Backend
	gate chan struct{}
}

func (g *gatedDisk) WriteAt(p []byte, off int64) (int, error) {
	<-g.gate
	return g.Backend.WriteAt(p, off)
}

// gatedStore builds a v=9 k=3 MemDisk store whose every write blocks
// until the returned gate is closed.
func gatedStore(t *testing.T, unitSize int) (*store.Store, chan struct{}) {
	t.Helper()
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.NewMapper(res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	backends := make([]store.Backend, m.Disks())
	for d := range backends {
		backends[d] = &gatedDisk{Backend: store.NewMemDisk(int64(m.DiskUnits() * unitSize)), gate: gate}
	}
	s, err := store.New(m, unitSize, backends)
	if err != nil {
		t.Fatal(err)
	}
	return s, gate
}

// waitUntil polls cond until it holds, failing the test after five
// seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestFrontendBackpressure fills the bounded queue against a blocked
// worker and checks that admission blocks until context cancellation.
func TestFrontendBackpressure(t *testing.T) {
	const unitSize = 16
	const depth = 4
	s, gate := gatedStore(t, unitSize)
	f := serve.New(s, serve.Config{QueueDepth: depth, FlushDelay: -1, Workers: 1})
	defer func() {
		f.Close()
		s.Close()
	}()

	// Saturate: the worker wedges on the gate holding its batch, and the
	// queue fills behind it. The wedged pipeline (worker batch + queue)
	// holds at most 2*depth admissions, so with more submitters than that
	// some must block on the full queue.
	const submitters = 8 * depth
	buf := payload(make([]byte, unitSize), 1)
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Go(context.Background(), serve.Op{Kind: serve.Write, Logical: i % s.Capacity(), Buf: buf}, func(error) {})
			admitted.Add(1)
		}(i)
	}

	// Wait until admissions stop progressing: the queue is full (channel
	// sends block only on a full queue) and stays full (the only worker
	// is wedged and cannot drain it).
	last, stable := int64(-1), 0
	for stable < 10 {
		time.Sleep(20 * time.Millisecond)
		if n := admitted.Load(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	if last >= submitters {
		t.Fatalf("all %d submissions admitted; queue never filled", submitters)
	}

	// A submission against the full queue must honor cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := f.Do(ctx, serve.Op{Kind: serve.Write, Logical: 0, Buf: buf})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled admission = %v, want context.DeadlineExceeded", err)
	}
	if f.Stats().Rejected == 0 {
		t.Error("Rejected counter not bumped")
	}
	close(gate)
	wg.Wait()
}

// TestFrontendWorkersFlushFullEach pins flush-on-full per worker and the
// QueueDepth cap: two workers of depth 4, with a deadline that never
// fires, must send 8 writes out as exactly two full batches, without
// Close. Writes block until both batches have formed, so a worker that
// flushed first cannot come back for a request the other one needs.
func TestFrontendWorkersFlushFullEach(t *testing.T) {
	const unitSize = 16
	const depth = 4
	s, gate := gatedStore(t, unitSize)
	f := serve.New(s, serve.Config{QueueDepth: depth, FlushDelay: time.Hour, Workers: 2})
	defer func() {
		f.Close()
		s.Close()
	}()
	buf := payload(make([]byte, unitSize), 2)
	done := make(chan error, 2*depth)
	for i := 0; i < 2*depth; i++ {
		if err := f.Go(context.Background(), serve.Op{Kind: serve.Write, Logical: i, Buf: buf}, func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "both workers hold a full batch", func() bool { return f.Stats().Batches == 2 })
	close(gate)
	for i := 0; i < 2*depth; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d writes completed: a batch is waiting out its deadline", i, 2*depth)
		}
	}
	if st := f.Stats(); st.Batches != 2 || st.FlushFull != 2 || st.FlushDeadline != 0 {
		t.Errorf("Batches %d, FlushFull %d, FlushDeadline %d; want 2, 2, 0", st.Batches, st.FlushFull, st.FlushDeadline)
	}
}

// TestFrontendCloseDrainsOpenBatches: requests sitting in an open batch,
// too few to fill it and with a deadline that never fires, each complete
// exactly once when Close drains them, and the workers waiting for their
// turn to form stop too.
func TestFrontendCloseDrainsOpenBatches(t *testing.T) {
	const unitSize = 16
	const ops = 6
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{FlushDelay: time.Hour, Workers: 4})
	buf := payload(make([]byte, unitSize), 4)
	var calls [ops]atomic.Int32
	for i := range calls {
		c := &calls[i]
		if err := f.Go(context.Background(), serve.Op{Kind: serve.Write, Logical: i, Buf: buf}, func(err error) {
			if err != nil {
				t.Error(err)
			}
			c.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the workers took every request", func() bool { return f.Stats().FgQueue == 0 })
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: open batches were not drained")
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("op %d completed %d times, want 1", i, n)
		}
	}
	if st := f.Stats(); st.Submitted != ops || st.Completed != st.Submitted {
		t.Errorf("Submitted %d, Completed %d; want %d each", st.Submitted, st.Completed, ops)
	}
}

// TestFrontendValidation pins admission-time rejection.
func TestFrontendValidation(t *testing.T) {
	const unitSize = 16
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{})
	ctx := context.Background()
	buf := make([]byte, unitSize)
	if err := f.Do(ctx, serve.Op{Kind: 9, Logical: 0, Buf: buf}); err == nil {
		t.Error("bad kind admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Class: 7, Logical: 0, Buf: buf}); err == nil {
		t.Error("bad class admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: -1, Buf: buf}); err == nil {
		t.Error("bad logical admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: 0, Buf: buf[:0]}); err == nil {
		t.Error("empty buffer admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: 0, Within: unitSize, Buf: buf[:3]}); err == nil {
		t.Error("first byte past its unit admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: 1, Within: -1, Buf: buf[:3]}); err == nil {
		t.Error("negative first byte admitted")
	}
	last := f.Store().Capacity() - 1
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: last, Buf: make([]byte, 2*unitSize)}); err == nil {
		t.Error("run past capacity admitted")
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Write, Logical: last, Within: 1, Buf: buf}); err == nil {
		t.Error("byte run one past capacity admitted")
	}
	if err := f.Go(ctx, serve.Op{}, nil); err == nil {
		t.Error("nil completion admitted")
	}
	if n := f.Stats().Rejected; n != 8 {
		t.Errorf("Rejected = %d, want 8", n)
	}

	// A byte run with partial first and last units is a valid request.
	want := payload(make([]byte, 2*unitSize), 4)
	if err := f.Do(ctx, serve.Op{Kind: serve.Write, Logical: last - 2, Within: 5, Buf: want}); err != nil {
		t.Fatalf("partial-unit run: %v", err)
	}
	got := make([]byte, len(want)+5)
	if err := f.Read(ctx, last-2, got); err != nil || !bytes.Equal(got[5:], want) {
		t.Fatalf("partial-unit run reads back %x, %v; want %x", got[5:], err, want)
	}
}

// TestFrontendClose: queued work finishes, later submissions fail.
func TestFrontendClose(t *testing.T) {
	const unitSize = 16
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := serve.New(s, serve.Config{QueueDepth: 8, FlushDelay: time.Millisecond})
	ctx := context.Background()
	buf := payload(make([]byte, unitSize), 3)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		i := i
		if err := f.Go(ctx, serve.Op{Kind: serve.Write, Logical: i, Buf: buf}, func(e error) { errs[i] = e; wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued op %d after Close: %v", i, err)
		}
	}
	if err := f.Do(ctx, serve.Op{Kind: serve.Read, Logical: 0, Buf: buf}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	got := make([]byte, unitSize)
	if err := s.Read(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Error("write queued before Close was lost")
	}
	if f.Close() != nil {
		t.Error("second Close errored")
	}
}

// startServer runs a Server for f on an ephemeral localhost port.
func startServer(t testing.TB, f *serve.Frontend) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(f)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestServerClient is the end-to-end network path: write, read, fail,
// degraded read, rebuild, stats — all over a real TCP socket.
func TestServerClient(t *testing.T) {
	const unitSize = 48
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 16, FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.UnitSize() != unitSize || c.Capacity() != f.Store().Capacity() || c.Disks() != 13 {
		t.Fatalf("handshake geometry: unit %d capacity %d disks %d", c.UnitSize(), c.Capacity(), c.Disks())
	}

	// Concurrent clients hammer the whole space.
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, unitSize)
			got := make([]byte, unitSize)
			for i := g; i < c.Capacity(); i += goroutines {
				if err := c.Write(i, payload(buf, i)); err != nil {
					errCh <- err
					return
				}
				if err := c.Read(i, got); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errCh <- errors.New("read diverges from write")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Failure and degraded serving over the wire.
	if err := c.Fail(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(5); err == nil {
		t.Error("second Fail should report remote error")
	} else if _, ok := err.(*serve.RemoteError); !ok {
		t.Errorf("second Fail error type %T", err)
	}
	got := make([]byte, unitSize)
	want := make([]byte, unitSize)
	for i := 0; i < c.Capacity(); i++ {
		if err := c.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(want, i)) {
			t.Fatalf("degraded read %d diverges", i)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fd := st.Store.FailedDisks; len(fd) != 1 || fd[0] != 5 || st.Store.Degraded == 0 {
		t.Errorf("stats after fail: %+v", st.Store)
	}

	// Online rebuild over the wire, then verify the array healed.
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if fd := f.Store().FailedDisks(); len(fd) != 0 {
		t.Errorf("failed disks after rebuild: %v", fd)
	}
	if err := f.Store().VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Capacity(); i++ {
		if err := c.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(want, i)) {
			t.Fatalf("post-rebuild read %d diverges", i)
		}
	}
}

// TestServerRebuildClosesDisplaced pins the in-memory rebuild path (no
// RebuildDisk hook): once Client.Rebuild returns, the MemDisk the rebuild
// displaced is closed, so a long-running server does not hold every
// displaced slab until a collection.
func TestServerRebuildClosesDisplaced(t *testing.T) {
	f := mustFrontend(t, 9, 3, 1, 64, serve.Config{FlushDelay: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(f)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Fail(4); err != nil {
		t.Fatal(err)
	}
	displaced := f.Store().DiskBackend(4)
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the server's goroutines, the rebuild's among them,
	// which orders its Close of the displaced disk before the check.
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if f.Store().DiskBackend(4) == displaced {
		t.Fatal("rebuild left the failed disk's backend in its slot")
	}
	if n, err := displaced.ReadAt(make([]byte, 1), 0); n != 0 || err != io.EOF {
		t.Fatalf("displaced disk after rebuild: ReadAt n=%d err=%v, want 0, io.EOF (closed)", n, err)
	}
}

// TestClientValidation pins client-side argument checks and the sticky
// connection error after Close.
func TestClientValidation(t *testing.T) {
	const unitSize = 16
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Read(0, make([]byte, 3)); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := c.Write(0, make([]byte, unitSize+1)); err == nil {
		t.Error("long write buffer accepted")
	}
	c.Close()
	if err := c.Read(0, make([]byte, unitSize)); err == nil {
		t.Error("read on closed client succeeded")
	}
}
