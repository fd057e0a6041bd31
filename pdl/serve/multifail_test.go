package serve_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// TestServerClientTwoFailures drives the full TCP stack against a
// Reed–Solomon array with two parity units per stripe: fail two disks
// over the wire, serve every unit degraded, rebuild both disks online,
// and end healthy — the serve-layer acceptance pin for multi-failure
// tolerance.
func TestServerClientTwoFailures(t *testing.T) {
	const unitSize = 48
	res, err := pdl.Build(9, 4, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := serve.New(s, serve.Config{QueueDepth: 16, FlushDelay: -1})
	t.Cleanup(func() {
		f.Close()
		s.Close()
	})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, unitSize)
	got := make([]byte, unitSize)
	for i := 0; i < c.Capacity(); i++ {
		if err := c.Write(i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Two failures over the wire; a third must be refused remotely.
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(6); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(7); err == nil {
		t.Error("third Fail accepted over the wire on a two-parity array")
	}

	// Every unit is served with two disks down; writes keep working.
	for i := 0; i < c.Capacity(); i++ {
		if err := c.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(buf, i)) {
			t.Fatalf("two-down read %d diverges", i)
		}
	}
	if err := c.Write(3, payload(buf, 10007)); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Store.FailedDisks) != 2 || st.Store.FailedDisks[0] != 2 || st.Store.FailedDisks[1] != 6 {
		t.Errorf("stats with two down: %+v", st.Store)
	}

	// Two online rebuilds over the wire heal the array (lowest disk
	// first), with reads correct at every stage.
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("after first rebuild: FailedDisks = %v, want [6]", got)
	}
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := s.FailedDisks(); len(got) != 0 {
		t.Fatalf("after both rebuilds: FailedDisks = %v", got)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Capacity(); i++ {
		want := payload(make([]byte, unitSize), i)
		if i == 3 {
			payload(want, 10007)
		}
		if err := c.Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-rebuild read %d diverges", i)
		}
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Store.FailedDisks) != 0 {
		t.Errorf("healthy stats: %+v", st.Store)
	}
}

// TestFailRefusedDuringRebuild pins that a server refuses OpFail while
// its rebuild runs, on the store path and through the FailDisk hook, so
// the failed set the rebuild started from holds until it ends. A
// RebuildDisk hook held on a channel keeps the rebuild running; the
// array tolerates two failures, so only the refusal stops the second.
func TestFailRefusedDuringRebuild(t *testing.T) {
	for _, hook := range []bool{false, true} {
		t.Run(fmt.Sprintf("FailDisk=%v", hook), func(t *testing.T) {
			const unitSize = 48
			res, err := pdl.Build(9, 4, pdl.WithParityShards(2))
			if err != nil {
				t.Fatal(err)
			}
			s, err := store.Open(res, res.Layout.Size, unitSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := serve.New(s, serve.Config{FlushDelay: -1})
			t.Cleanup(func() {
				f.Close()
				s.Close()
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.NewServer(f)
			var hookFails atomic.Int32
			if hook {
				srv.FailDisk = func(d int) error {
					hookFails.Add(1)
					return s.Fail(d)
				}
			}
			entered, release := make(chan struct{}), make(chan struct{})
			srv.RebuildDisk = func() error {
				close(entered)
				<-release
				return s.Rebuild(store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize))
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			t.Cleanup(func() {
				srv.Close()
				if err := <-done; err != nil {
					t.Errorf("Serve: %v", err)
				}
			})
			c, err := serve.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if err := c.Fail(2); err != nil {
				t.Fatal(err)
			}
			rebuilt := make(chan error, 1)
			go func() { rebuilt <- c.Rebuild() }()
			<-entered
			if err := c.Fail(6); err == nil || !strings.Contains(err.Error(), "rebuild in progress") {
				t.Errorf("Fail(6) during the rebuild: %v, want the rebuild-in-progress refusal", err)
			}
			close(release)
			if err := <-rebuilt; err != nil {
				t.Fatal(err)
			}
			if got := s.FailedDisks(); len(got) != 0 {
				t.Fatalf("after the rebuild: FailedDisks = %v, want []", got)
			}
			if err := c.Fail(6); err != nil {
				t.Fatalf("Fail(6) after the rebuild: %v", err)
			}
			if hook && hookFails.Load() != 2 {
				t.Errorf("FailDisk hook ran %d times, want 2 (the refused Fail never reaches it)", hookFails.Load())
			}
		})
	}
}
