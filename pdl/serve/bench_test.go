package serve_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// Bench geometry: ring v=17 k=4, 4 layout copies per disk, 1 KiB units,
// MemDisk backends. The batched/
// unbatched pair differs only in QueueDepth: 1 disables coalescing
// (every request is its own batch), 32 is the acceptance configuration.
const (
	benchUnit     = 1024
	benchDepth    = 32
	benchInflight = 256
)

func benchFrontend(b *testing.B, depth int) *serve.Frontend {
	b.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.Open(res, 4*res.Layout.Size, benchUnit, nil)
	if err != nil {
		b.Fatal(err)
	}
	f := serve.New(s, serve.Config{QueueDepth: depth, FlushDelay: 100 * time.Microsecond})
	b.Cleanup(func() {
		f.Close()
		s.Close()
	})
	buf := make([]byte, benchUnit)
	for i := 0; i < s.Capacity(); i++ {
		if err := s.Write(i, buf); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// benchAsyncWrite drives b.N pipelined small writes (sequential
// addresses, benchInflight in flight) through the frontend — the same
// submission pattern the TCP server uses.
func benchAsyncWrite(b *testing.B, depth int) {
	f := benchFrontend(b, depth)
	capacity := f.Store().Capacity()
	src := make([]byte, benchUnit)
	sem := make(chan struct{}, benchInflight)
	var wg sync.WaitGroup
	ctx := context.Background()
	cb := func(err error) {
		if err != nil {
			b.Error(err)
		}
		<-sem
		wg.Done()
	}
	b.SetBytes(benchUnit)
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		if err := f.Go(ctx, serve.Op{Kind: serve.Write, Logical: i % capacity, Buf: src}, cb); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkServeWriteUnbatched is the no-coalescing baseline (queue
// depth 1): every small write is a full read-modify-write pass.
func BenchmarkServeWriteUnbatched(b *testing.B) { benchAsyncWrite(b, 1) }

// BenchmarkServeWriteBatched is the acceptance configuration (queue
// depth 32): sequential small writes coalesce per stripe and whole
// stripes promote to no-preread Condition 5 writes. The standing
// criterion (CONTRIBUTING.md): ≥ 2× BenchmarkServeWriteUnbatched.
func BenchmarkServeWriteBatched(b *testing.B) { benchAsyncWrite(b, benchDepth) }

// BenchmarkServeReadBatched measures pipelined reads at queue depth 32
// (reads coalesce into one lock pass per stripe; no promotion applies).
func BenchmarkServeReadBatched(b *testing.B) {
	f := benchFrontend(b, benchDepth)
	capacity := f.Store().Capacity()
	sem := make(chan struct{}, benchInflight)
	bufs := make([][]byte, benchInflight)
	for i := range bufs {
		bufs[i] = make([]byte, benchUnit)
	}
	var wg sync.WaitGroup
	ctx := context.Background()
	cb := func(err error) {
		if err != nil {
			b.Error(err)
		}
		<-sem
		wg.Done()
	}
	b.SetBytes(benchUnit)
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		if err := f.Go(ctx, serve.Op{Kind: serve.Read, Logical: i % capacity, Buf: bufs[i%benchInflight]}, cb); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkServeDo measures the synchronous single-request path
// (immediate flush): the per-request latency floor of the frontend.
func BenchmarkServeDo(b *testing.B) {
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.Open(res, 4*res.Layout.Size, benchUnit, nil)
	if err != nil {
		b.Fatal(err)
	}
	f := serve.New(s, serve.Config{FlushDelay: -1})
	b.Cleanup(func() {
		f.Close()
		s.Close()
	})
	src := make([]byte, benchUnit)
	ctx := context.Background()
	b.SetBytes(benchUnit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(ctx, i%s.Capacity(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTCPWrite measures the full network path: pipelined unit
// writes from concurrent client goroutines over a real localhost TCP
// connection into the batching frontend.
func BenchmarkServeTCPWrite(b *testing.B) {
	f := benchFrontend(b, benchDepth)
	addr := startServer(b, f)
	c, err := serve.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	capacity := f.Store().Capacity()
	// More in-flight requests than QueueDepth, so batches flush on full
	// rather than waiting out the deadline timer.
	const clients = 64
	var next atomic.Int64
	b.SetBytes(benchUnit)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := make([]byte, benchUnit)
			for {
				n := int(next.Add(1)) - 1
				if n >= b.N {
					return
				}
				if err := c.Write(n%capacity, src); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}
