package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl/obs"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// heldDisk lets its first WriteAt through and holds every later one
// until open is closed, so an online rebuild onto it stays observable:
// the mid-rebuild scrape below needs a window where
// 0 < rebuilt_stripes < total, and the rebuild writes its replacement in
// a few long runs.
type heldDisk struct {
	store.Backend
	writes atomic.Int64
	open   chan struct{}
}

func (d *heldDisk) WriteAt(p []byte, off int64) (int, error) {
	if d.writes.Add(1) > 1 {
		<-d.open
	}
	return d.Backend.WriteAt(p, off)
}

// metricValue finds series name{...} in a Prometheus exposition and
// returns its value; label is a substring the label set must contain
// ("" matches any series of the family).
func metricValue(t *testing.T, text, name, label string) (float64, bool) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(\{[^}]*\})? (\S+)$`)
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		if label != "" && !strings.Contains(m[1], label) {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("%s: bad value %q", name, m[2])
		}
		return v, true
	}
	return 0, false
}

// TestMetricsEndToEnd is the acceptance path for the obs stack: serve an
// instrumented frontend over HTTP, fail a disk, scrape /metrics in the
// middle of an online rebuild under foreground load, and check the
// exposition carries per-disk degraded counters, rebuild progress, and
// foreground latency buckets.
func TestMetricsEndToEnd(t *testing.T) {
	const unitSize = 512
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{FlushDelay: -1})
	s := f.Store()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	f.RegisterMetrics(reg)
	h := obs.NewHandler(reg)
	h.AddStatus("array", func() any {
		st := s.Stats()
		return map[string]any{"failed_disks": st.FailedDisks, "rebuilding": st.Rebuilding}
	})
	web := httptest.NewServer(h)
	defer web.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	ctx := context.Background()
	buf := make([]byte, unitSize)
	capacity := s.Capacity()
	for i := 0; i < capacity; i++ {
		if err := f.Write(ctx, i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Degraded foreground reads: units on disk 0 reconstruct by survivor
	// XOR, charging degraded ops to the surviving disks.
	for i := 0; i < capacity; i++ {
		if err := f.Read(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Rebuild onto a held replacement so the scrape below lands
	// mid-rebuild, with foreground load still running.
	need := int64(s.Mapper().DiskUnits()) * unitSize
	gate := &heldDisk{Backend: store.NewMemDisk(need), open: make(chan struct{})}
	var release sync.Once
	defer release.Do(func() { close(gate.open) })
	rebuilt := make(chan error, 1)
	go func() {
		rebuilt <- s.Rebuild(gate)
	}()
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		b := make([]byte, unitSize)
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
				if err := f.Read(ctx, i%capacity, b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var midText string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never observed a mid-rebuild scrape")
		}
		text, ctype := get("/metrics")
		if !strings.Contains(ctype, "version=0.0.4") {
			t.Fatalf("content type %q is not exposition format 0.0.4", ctype)
		}
		total, _ := metricValue(t, text, "pdl_store_stripes", "")
		prog, _ := metricValue(t, text, "pdl_store_rebuilt_stripes", "")
		if r, ok := metricValue(t, text, "pdl_store_rebuilding", ""); ok && r == 1 && prog > 0 && prog < total {
			midText = text
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	release.Do(func() { close(gate.open) })
	close(stopLoad)
	<-loadDone

	// Per-disk degraded counters: the survivor XOR charged some disk.
	if v, ok := metricValue(t, midText, "pdl_store_disk_degraded_total", `disk="1"`); !ok || v <= 0 {
		t.Errorf("pdl_store_disk_degraded_total{disk=1} = %v, want > 0", v)
	}
	// The rebuild is running on at least its first worker.
	if v, ok := metricValue(t, midText, "pdl_store_rebuild_workers", ""); !ok || v < 1 {
		t.Errorf("pdl_store_rebuild_workers = %v mid-rebuild, want >= 1", v)
	}
	// Foreground latency histogram: buckets present and counting.
	if !strings.Contains(midText, `pdl_serve_latency_seconds_bucket{class="foreground",le="`) {
		t.Error("no foreground latency buckets in mid-rebuild exposition")
	}
	if v, ok := metricValue(t, midText, "pdl_serve_latency_seconds_count", `class="foreground"`); !ok || v <= 0 {
		t.Errorf("foreground latency count = %v, want > 0", v)
	}

	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	text, _ := get("/metrics")
	if v, _ := metricValue(t, text, "pdl_store_rebuilding", ""); v != 0 {
		t.Errorf("pdl_store_rebuilding = %v after rebuild, want 0", v)
	}
	if v, _ := metricValue(t, text, "pdl_store_rebuild_workers", ""); v != 0 {
		t.Errorf("pdl_store_rebuild_workers = %v after rebuild, want 0", v)
	}
	if v, _ := metricValue(t, text, "pdl_store_failed_disks", ""); v != 0 {
		t.Errorf("pdl_store_failed_disks = %v after rebuild, want 0", v)
	}

	// /statusz carries the status sections and the metric snapshot;
	// /healthz answers.
	statusz, ctype := get("/statusz")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("statusz content type %q", ctype)
	}
	var status map[string]json.RawMessage
	if err := json.Unmarshal([]byte(statusz), &status); err != nil {
		t.Fatalf("statusz is not JSON: %v", err)
	}
	for _, key := range []string{"array", "metrics"} {
		if _, ok := status[key]; !ok {
			t.Errorf("statusz missing %q section", key)
		}
	}
	if body, _ := get("/healthz"); body != "ok\n" {
		t.Errorf("healthz = %q", body)
	}
}
