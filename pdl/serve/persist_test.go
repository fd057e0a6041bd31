package serve_test

import (
	"bytes"
	"math/rand"
	"net"
	"testing"

	"repro/pdl/serve"
	"repro/pdl/store/array"
)

// arrayServer is one "process lifetime" of a durable server: a frontend
// and TCP server over an opened array.
type arrayServer struct {
	arr   *array.Array
	front *serve.Frontend
	srv   *serve.Server
	addr  string
}

func startArrayServer(t *testing.T, arr *array.Array) *arrayServer {
	t.Helper()
	front := serve.New(arr.Store(), serve.Config{QueueDepth: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(front)
	srv.FailDisk = arr.Fail
	srv.RebuildDisk = func() error { _, err := arr.Rebuild(); return err }
	go srv.Serve(ln)
	return &arrayServer{arr: arr, front: front, srv: srv, addr: ln.Addr().String()}
}

// kill tears the server down the way a crash would leave the array: the
// network and the frontend stop, but the array is never Closed or Synced —
// reopening must rely only on the bytes and manifest already on disk.
func (as *arrayServer) kill() {
	as.srv.Close()
	as.front.Close()
}

// TestServePersistenceAcrossRestart is the acceptance walkthrough as an
// automated test: init an on-disk array, serve it over TCP, write
// through the client (spans included), fail a disk over the wire, kill
// the server, serve the same directory again — the bytes and the
// degraded state must come back — then rebuild over the wire, kill and
// reopen once more, and verify the healthy array. Runs for both
// persistent backends.
func TestServePersistenceAcrossRestart(t *testing.T) {
	for _, kind := range []array.BackendKind{array.File, array.Mmap} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: 13, K: 4, Copies: 2, UnitSize: 64, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			as := startArrayServer(t, arr)
			c, err := serve.Dial(as.addr)
			if err != nil {
				t.Fatal(err)
			}
			size := c.Size()
			unit := c.UnitSize()
			mirror := make([]byte, size)
			rand.New(rand.NewSource(11)).Read(mirror)

			// Fill the whole array through the striped span path, then
			// overwrite an unaligned slice so RMW edges persist too.
			if n, err := c.WriteAt(mirror, 0); err != nil || int64(n) != size {
				t.Fatalf("fill: n=%d err=%v", n, err)
			}
			patch := []byte("durable parity declustering")
			patchOff := int64(3*unit + 17)
			if _, err := c.WriteAt(patch, patchOff); err != nil {
				t.Fatal(err)
			}
			copy(mirror[patchOff:], patch)

			// Fail a disk over the wire: scrubbed on disk, recorded in the
			// manifest via the server's FailDisk hook.
			if err := c.Fail(5); err != nil {
				t.Fatal(err)
			}
			c.Close()
			as.kill()

			// Restart 1: reopen the directory; degraded state and bytes
			// must have survived the kill.
			arr2, err := array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			if fd := arr2.Store().FailedDisks(); len(fd) != 1 || fd[0] != 5 {
				t.Fatalf("restart forgot degraded state: FailedDisks = %v, want [5]", fd)
			}
			as2 := startArrayServer(t, arr2)
			c2, err := serve.Dial(as2.addr)
			if err != nil {
				t.Fatal(err)
			}
			if st, err := c2.Stats(); err != nil || len(st.Store.FailedDisks) != 1 || st.Store.FailedDisks[0] != 5 {
				t.Fatalf("Stats after restart: FailedDisks = %v, err %v, want [5]", st.Store.FailedDisks, err)
			}
			got := make([]byte, size)
			if _, err := c2.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror) {
				t.Fatal("degraded bytes diverge after restart")
			}

			// More writes while degraded, then rebuild over the wire (the
			// RebuildDisk hook rebuilds the disk file in place, syncs it and
			// records it), and kill again.
			if _, err := c2.WriteAt(patch, size-int64(len(patch))); err != nil {
				t.Fatal(err)
			}
			copy(mirror[size-int64(len(patch)):], patch)
			if err := c2.Rebuild(); err != nil {
				t.Fatal(err)
			}
			c2.Close()
			as2.kill()

			// Restart 2: healthy, history recorded, every byte intact.
			arr3, err := array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer arr3.Close()
			if fd := arr3.Store().FailedDisks(); len(fd) != 0 {
				t.Fatalf("after rebuild+restart: FailedDisks = %v, want []", fd)
			}
			if m := arr3.Manifest(); m.Disks[5].State != array.DiskRebuilt {
				t.Fatalf("rebuild history lost: disk 5 state %q", m.Disks[5].State)
			}
			as3 := startArrayServer(t, arr3)
			defer as3.kill()
			c3, err := serve.Dial(as3.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c3.Close()
			if _, err := c3.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror) {
				t.Fatal("healthy bytes diverge after second restart")
			}
			if err := arr3.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
