package cluster_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/obs"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// TestTwoFailedDisksVisible pins one failure model above the store: with
// disks 2 and 6 down on an rs m = 2 shard (deliberately not disk 0), the
// whole failed set shows through serve.Client.Stats, cluster.Client.Stats
// and /metrics, and each Rebuild takes exactly the lowest disk off it.
func TestTwoFailedDisksVisible(t *testing.T) {
	res, err := pdl.Build(13, 4, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, shardStoreUnit, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := serve.New(s, serve.Config{FlushDelay: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(front)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	web := httptest.NewServer(obs.NewHandler(reg))
	t.Cleanup(func() {
		web.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		front.Close()
		s.Close()
	})

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unit := int64(shardStoreUnit)
	cc, err := cluster.Open(&cluster.Manifest{
		Version:   cluster.FormatVersion,
		UnitBytes: unit,
		Policy:    cluster.RoundRobin,
		Shards:    []cluster.ShardInfo{{Addr: ln.Addr().String(), Units: c.Size() / unit, State: cluster.ShardHealthy}},
	}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	check := func(want []int) {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.Store.FailedDisks, want) {
			t.Errorf("serve.Client.Stats: FailedDisks = %v, want %v", st.Store.FailedDisks, want)
		}
		wantState := cluster.ShardHealthy
		if len(want) > 0 {
			wantState = cluster.ShardDegraded
		}
		sh := cc.Stats()[0]
		if !slices.Equal(sh.Server.Store.FailedDisks, want) || sh.State != wantState {
			t.Errorf("cluster.Client.Stats: FailedDisks = %v state %q, want %v %q", sh.Server.Store.FailedDisks, sh.State, want, wantState)
		}
		resp, err := http.Get(web.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)
		for d := 0; d < s.Mapper().Disks(); d++ {
			v := 0
			if slices.Contains(want, d) {
				v = 1
			}
			if line := fmt.Sprintf("\npdl_store_disk_failed{disk=\"%d\"} %d\n", d, v); !strings.Contains(text, line) {
				t.Errorf("/metrics lacks %s", strings.TrimSpace(line))
			}
		}
		if line := fmt.Sprintf("\npdl_store_failed_disks %d\n", len(want)); !strings.Contains(text, line) {
			t.Errorf("/metrics lacks %s", strings.TrimSpace(line))
		}
	}

	check(nil)
	for _, d := range []int{2, 6} {
		if err := c.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	check([]int{2, 6})
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check([]int{6})
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check(nil)
}
