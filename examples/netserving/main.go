// Netserving: the full network path of the serving stack — build a
// balanced layout, serve it from a pdl/store array through the pdl/serve
// batching frontend and its TCP server, then drive it with concurrent
// clients: writes and reads over the wire, a disk failure, degraded
// reads from survivor XOR, an online rebuild, and a final byte-perfect
// sweep. Everything runs in-process on a loopback socket, but every
// request crosses a real TCP connection.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"sync"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

func main() {
	// Construction → layout → mapper → plan → store: the array.
	res, err := pdl.Build(13, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("construction: %s\n", res.Method)
	const unitSize = 64
	s, err := store.Open(res, 2*res.Layout.Size, unitSize, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Serve: the batching frontend and its TCP front end.
	front := serve.New(s, serve.Config{QueueDepth: 32})
	defer front.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(front)
	go srv.Serve(ln)
	defer srv.Close()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("connected over TCP: %d disks, %d units of %d B\n", c.Disks(), c.Capacity(), c.UnitSize())

	// Concurrent clients fill the whole array through the wire; their
	// requests coalesce into batched stripe writes on the server.
	mirror := make([][]byte, c.Capacity())
	const clients = 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < c.Capacity(); i += clients {
				buf := make([]byte, unitSize)
				for j := range buf {
					buf[j] = byte(i + 7*j)
				}
				mirror[i] = buf
				if err := c.Write(i, buf); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	msg := []byte("parity declustering over the network")
	unit0 := append(append([]byte(nil), msg...), mirror[0][len(msg):]...)
	if err := c.Write(0, unit0); err != nil {
		log.Fatal(err)
	}
	mirror[0] = unit0
	fmt.Printf("wrote %d units from %d concurrent clients\n", c.Capacity(), clients)

	got := make([]byte, unitSize)
	if err := c.Read(0, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q\n", got[:len(msg)])

	// Disk 5 dies — over the wire. Reads keep working: lost units are
	// reconstructed from their stripe's surviving XOR set on the server.
	if err := c.Fail(5); err != nil {
		log.Fatal(err)
	}
	if err := c.Read(0, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk 5 failed; degraded read: %q\n", got[:len(msg)])
	sweep := func() bool {
		for i := 0; i < c.Capacity(); i++ {
			if err := c.Read(i, got); err != nil {
				log.Fatal(err)
			}
			if !bytes.Equal(got, mirror[i]) {
				return false
			}
		}
		return true
	}
	fmt.Printf("degraded sweep over the wire matches: %v\n", sweep())
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served via survivor XOR: %v\n", st.Store.Degraded > 0)

	// Online rebuild over the wire, traffic still flowing.
	if err := c.Rebuild(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt online; failed disks now: %v\n", s.FailedDisks())
	if err := s.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parity verified; healthy sweep matches: %v\n", sweep())
}
