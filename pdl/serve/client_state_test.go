package serve_test

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/pdl/serve"
)

// TestClientClosedTyped pins the typed close error: calls racing or
// following the caller's own Close fail with ErrClientClosed (a caller
// bug), never a bare connection error.
func TestClientClosedTyped(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 16})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	closedErrs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, unitSize)
			for i := 0; ; i++ {
				if err := c.Read((g*31+i)%c.Capacity(), buf); err != nil {
					closedErrs <- err
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	c.Close()
	wg.Wait()
	close(closedErrs)
	for err := range closedErrs {
		if !errors.Is(err, serve.ErrClientClosed) {
			t.Fatalf("in-flight call after Close: got %v, want ErrClientClosed", err)
		}
	}
	// New calls after Close are typed too.
	if err := c.Read(0, make([]byte, unitSize)); !errors.Is(err, serve.ErrClientClosed) {
		t.Fatalf("call after Close: got %v, want ErrClientClosed", err)
	}
}

// TestServerDeathMidPipeline kills the server under a pipeline of
// in-flight requests: every call must fail promptly with a transport
// error — NOT ErrClientClosed, which is reserved for the caller's own
// Close — and the client must leak no goroutines.
func TestServerDeathMidPipeline(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 13, 4, 1, unitSize, serve.Config{QueueDepth: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(f)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()

	before := runtime.NumGoroutine()
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	started := make(chan struct{}, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, unitSize)
			for i := 0; ; i++ {
				if err := c.Read((g*17+i)%c.Capacity(), buf); err != nil {
					errs <- err
					return
				}
				if i == 0 {
					started <- struct{}{}
				}
			}
		}(g)
	}
	// Every pipeline lane has completed at least one request; kill the
	// server mid-traffic.
	for g := 0; g < 16; g++ {
		<-started
	}
	srv.Close()
	<-serveDone

	// No call may hang: all 16 lanes must fail out.
	fell := make(chan struct{})
	go func() { wg.Wait(); close(fell) }()
	select {
	case <-fell:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight calls still blocked 10s after server death")
	}
	close(errs)
	n := 0
	for err := range errs {
		n++
		if errors.Is(err, serve.ErrClientClosed) {
			t.Fatalf("server death surfaced as ErrClientClosed: %v", err)
		}
	}
	if n != 16 {
		t.Fatalf("%d of 16 lanes reported an error", n)
	}
	// The poisoned client keeps failing with the transport error.
	if err := c.Read(0, make([]byte, unitSize)); err == nil || errors.Is(err, serve.ErrClientClosed) {
		t.Fatalf("post-death call: got %v, want sticky transport error", err)
	}

	// The client reader goroutine must have exited: the goroutine count
	// returns to the pre-Dial baseline (with slack for test runtime
	// bookkeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before dial, %d after server death", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
