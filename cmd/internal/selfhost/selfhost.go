// Package selfhost stands up the throwaway arrays behind pdlserve's and
// pdlcluster's self-hosted modes: a MemDisk array, its batching
// frontend, and a real TCP server on a loopback socket.
package selfhost

import (
	"flag"
	"fmt"
	"net"

	"repro/cmd/internal/units"
	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// Flags is the geometry of one array and the policy of its frontend.
type Flags struct {
	V, K, Parity, Copies, Unit int
	Config                     serve.Config
}

// AddFlags registers the array flags on fs; unitFlag names the one that
// sets the array's unit size.
func AddFlags(fs *flag.FlagSet, unitFlag string) *Flags {
	a := &Flags{}
	fs.IntVar(&a.V, "v", 17, "number of disks")
	fs.IntVar(&a.K, "k", 4, "parity stripe size")
	fs.IntVar(&a.Parity, "parity", 1, "parity shards per stripe (1 = XOR, >1 = Reed-Solomon)")
	fs.IntVar(&a.Copies, "copies", 4, "layout copies per disk")
	fs.IntVar(&a.Unit, unitFlag, 4096, "array unit size in bytes")
	fs.IntVar(&a.Config.QueueDepth, "depth", serve.DefaultQueueDepth, "submission queue depth / max batch size")
	fs.DurationVar(&a.Config.FlushDelay, "flush", serve.DefaultFlushDelay, "batch flush deadline (negative = immediate)")
	return a
}

// Frontend builds the array on MemDisks, prints its one-line
// description, and returns the batching frontend over it.
func (a *Flags) Frontend() (*serve.Frontend, error) {
	var opts []pdl.Option
	if a.Parity > 1 {
		opts = append(opts, pdl.WithParityShards(a.Parity))
	}
	res, err := pdl.Build(a.V, a.K, opts...)
	if err != nil {
		return nil, err
	}
	s, err := store.Open(res, a.Copies*res.Layout.Size, a.Unit, nil)
	if err != nil {
		return nil, err
	}
	c := s.Code()
	fmt.Printf("array: %s v=%d k=%d codec=%s/%d, %d units of %d B (%.1f MB logical)\n",
		res.Method, a.V, a.K, c.Name(), c.ParityShards(), s.Capacity(), a.Unit, float64(s.Size())/units.BytesPerMB)
	return serve.New(s, a.Config), nil
}

// Serve builds the array and serves it on a fresh loopback socket;
// stop closes the server, the frontend and the store.
func (a *Flags) Serve() (front *serve.Frontend, addr string, stop func(), err error) {
	if front, err = a.Frontend(); err != nil {
		return nil, "", nil, err
	}
	closeArray := func() { front.Close(); front.Store().Close() }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeArray()
		return nil, "", nil, err
	}
	srv := serve.NewServer(front)
	go srv.Serve(ln)
	return front, ln.Addr().String(), func() { srv.Close(); closeArray() }, nil
}
