package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pdl/obs"
	"repro/pdl/serve"
	"repro/pdl/serve/wire"
	"repro/pdl/store/array"
)

// The README's compatibility table lives between these two markers and
// is checked, not hand-kept: TestCompatTable runs every pairing below and
// fails when the block differs from what the runs produced.
const (
	compatBegin = "<!-- compat:begin (checked by TestCompatTable in pdl/serve; do not edit by hand) -->"
	compatEnd   = "<!-- compat:end -->"
)

// compatFeatures names the table's rows; every column function returns
// one cell per entry, in this order.
var compatFeatures = []string{
	"`array.json` behind the server",
	"handshake",
	"unit `Read`/`Write`",
	"`ReadAt`/`WriteAt` span (20 units, unaligned edges)",
	"`Fail`/`Rebuild` over the wire",
	"`Stats` fields `failed_disks` / `codec` / `parity_shards`",
}

const (
	compatUnit  = 64
	compatSpan  = 20*compatUnit + 17
	compatStart = int64(3*compatUnit + 5)
)

// compatServer serves a fresh on-disk array over TCP with the current
// server: the default single-parity array for manifest format 1, a
// two-parity Reed–Solomon one for format 2. It returns the server, its
// metric registry and the row-0 cell describing array.json.
func compatServer(t *testing.T, format int) (*arrayServer, *obs.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	opts := array.CreateOptions{V: 9, K: 4, UnitSize: compatUnit}
	if format == 2 {
		opts.ParityShards = 2
	}
	arr, err := array.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	as := startArrayServer(t, arr)
	t.Cleanup(func() {
		as.kill()
		arr.Close()
	})
	reg := obs.NewRegistry()
	as.srv.RegisterMetrics(reg)

	b, err := os.ReadFile(filepath.Join(dir, array.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	cell := fmt.Sprintf("format %v", m["version"])
	if _, ok := m["codec"]; ok {
		cell += fmt.Sprintf(", `codec` %v", m["codec"])
	}
	if _, ok := m["parity_shards"]; ok {
		cell += fmt.Sprintf(", `parity_shards` %v", m["parity_shards"])
	} else {
		cell += ", no codec fields"
	}
	return as, reg, cell
}

// counter sums one counter family of a registry snapshot.
func counter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			var n int64
			for _, s := range f.Series {
				n += s.Value
			}
			return n
		}
	}
	t.Fatalf("no metric family %q", name)
	return 0
}

// multiFailCell renders the Stats row from a decoded stats document.
func multiFailCell(st *serve.StoreStats) string {
	if st.FailedDisks == nil && st.Codec == "" && st.ParityShards == 0 {
		return fmt.Sprintf("absent: the client sees `failed_disk` %d only and reads the code as xor / 1", st.FailedDisk)
	}
	return fmt.Sprintf("%v / %s / %d", st.FailedDisks, st.Codec, st.ParityShards)
}

// v1ClientCells drives a hand-rolled wire v1 peer against the current
// server over an array of the given manifest format.
func v1ClientCells(t *testing.T, format int) []string {
	t.Helper()
	as, reg, cells0 := compatServer(t, format)
	rc := dialRawV1(t, as.addr)
	cells := []string{cells0}

	resp := rc.do(t, wire.OpInfo, 0, nil)
	var in wire.Info
	if resp.Status != wire.StatusOK || wire.DecodeInfo(resp.Payload, &in) != nil {
		t.Fatalf("v1 info: status %d, %d bytes", resp.Status, len(resp.Payload))
	}
	cells = append(cells, fmt.Sprintf("no hello needed: plain %d-byte `Info`", len(resp.Payload)))

	// A v1 client moves a span as unit ops; the server must open no stream.
	span := payload(make([]byte, 20*compatUnit), 5)
	for u := 0; u < 20; u++ {
		if resp := rc.do(t, wire.OpWrite, uint64(3+u), span[u*compatUnit:(u+1)*compatUnit]); resp.Status != wire.StatusOK {
			t.Fatalf("v1 write %d: %s", u, resp.Payload)
		}
	}
	for u := 0; u < 20; u++ {
		if resp := rc.do(t, wire.OpRead, uint64(3+u), nil); resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, span[u*compatUnit:(u+1)*compatUnit]) {
			t.Fatalf("v1 read %d diverges", u)
		}
	}
	cells = append(cells, "ok")
	if n := counter(t, reg, "pdl_serve_read_spans_total") + counter(t, reg, "pdl_serve_write_streams_total"); n != 0 {
		t.Fatalf("v1 peer opened %d streams", n)
	}
	cells = append(cells, "unit ops (all a v1 client has)")

	down := 0
	for d := 0; d < in.Disks && rc.do(t, wire.OpFail, uint64(d), nil).Status == wire.StatusOK; d++ {
		down++
	}
	resp = rc.do(t, wire.OpStats, 0, nil)
	// The Stats document as a v1 client declared it: newer fields must
	// decode as ignorable extras.
	var old struct {
		Store struct {
			FailedDisk int `json:"failed_disk"`
		} `json:"store"`
	}
	var cur serve.ServerStats
	if resp.Status != wire.StatusOK || json.Unmarshal(resp.Payload, &old) != nil || json.Unmarshal(resp.Payload, &cur) != nil || old.Store.FailedDisk != 0 {
		t.Fatalf("v1 stats: status %d: %s", resp.Status, resp.Payload)
	}
	for i := 0; i < down; i++ {
		if resp := rc.do(t, wire.OpRebuild, 0, nil); resp.Status != wire.StatusOK {
			t.Fatalf("v1 rebuild %d: %s", i, resp.Payload)
		}
	}
	cells = append(cells,
		fmt.Sprintf("ok; up to %d down at once", down),
		multiFailCell(&cur.Store)+" sent; a v1 decoder skips them and still reads `failed_disk`")
	return cells
}

// v2ClientCells drives the current client against a v1-only server
// (format 0: the stub of interop_test.go, which has no array behind it)
// or against the current server over an array of the given format.
func v2ClientCells(t *testing.T, format int) []string {
	t.Helper()
	var addr string
	var cells []string
	if format == 0 {
		addr = startV1Server(t, compatUnit, 256)
		// What any binary does with a manifest newer than it knows — the
		// rule a v1-era server applies to format 2.
		newer := fmt.Sprintf(`{"version": %d}`, array.FormatVersion+1)
		if _, err := array.DecodeManifest([]byte(newer)); !errors.Is(err, array.ErrVersion) {
			t.Fatalf("manifest version %d: %v, want ErrVersion", array.FormatVersion+1, err)
		}
		cells = append(cells, "format 1 only: a binary refuses formats newer than it knows (`ErrVersion`)")
	} else {
		as, _, cell := compatServer(t, format)
		addr = as.addr
		cells = append(cells, cell)
	}
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	feats := "no features"
	if c.Features()&wire.FeatStreams != 0 {
		feats = "streams"
	}
	cells = append(cells, fmt.Sprintf("wire v%d, %s", c.ProtocolVersion(), feats))

	want := payload(make([]byte, compatUnit), 3)
	got := make([]byte, compatUnit)
	if err := c.Write(1, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("unit round trip: %v", err)
	}
	cells = append(cells, "ok")

	streams := func() int64 {
		return counter(t, reg, "pdl_serve_client_read_spans_total") + counter(t, reg, "pdl_serve_client_write_streams_total")
	}
	streams0, requests0 := streams(), counter(t, reg, "pdl_serve_client_requests_total")
	span := payload(make([]byte, compatSpan), 9)
	if n, err := c.WriteAt(span, compatStart); err != nil || n != len(span) {
		t.Fatalf("span WriteAt: n=%d err=%v", n, err)
	}
	back := make([]byte, len(span))
	if n, err := c.ReadAt(back, compatStart); err != nil || n != len(span) || !bytes.Equal(back, span) {
		t.Fatalf("span ReadAt: n=%d err=%v", n, err)
	}
	switch nStreams, nUnits := streams()-streams0, counter(t, reg, "pdl_serve_client_requests_total")-requests0; {
	case nStreams == 0:
		cells = append(cells, "unit ops")
	case nUnits > 0:
		cells = append(cells, "streams for the aligned middle, unit ops for the edges")
	default:
		t.Fatalf("span moved as %d streams and no unit ops", nStreams)
	}

	down := 0
	for d := 0; d < c.Disks() && c.Fail(d) == nil; d++ {
		down++
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed() != 0 {
		t.Fatalf("Failed() = %d after failing disk 0", c.Failed())
	}
	for i := 0; i < down; i++ {
		if err := c.Rebuild(); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	if c.Failed() != -1 {
		t.Fatalf("Failed() = %d after rebuilding", c.Failed())
	}
	cells = append(cells, fmt.Sprintf("ok; up to %d down at once", down), multiFailCell(&st.Store))
	return cells
}

// TestCompatTable derives the README's wire × manifest compatibility
// table by running each pairing, and fails when the README is stale.
func TestCompatTable(t *testing.T) {
	cols := []struct {
		head  string
		cells []string
	}{
		{"v1 client → v2 server, format-1 array", v1ClientCells(t, 1)},
		{"v1 client → v2 server, format-2 array", v1ClientCells(t, 2)},
		{"v2 client → v1 server", v2ClientCells(t, 0)},
		{"v2 client → v2 server, format-1 array", v2ClientCells(t, 1)},
		{"v2 client → v2 server, format-2 array", v2ClientCells(t, 2)},
	}
	var b strings.Builder
	b.WriteString(compatBegin + "\n| Feature |")
	for _, c := range cols {
		b.WriteString(" " + c.head + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(cols)) + "\n")
	for r, feature := range compatFeatures {
		b.WriteString("| " + feature + " |")
		for _, c := range cols {
			if len(c.cells) != len(compatFeatures) {
				t.Fatalf("column %q has %d cells, want %d", c.head, len(c.cells), len(compatFeatures))
			}
			b.WriteString(" " + c.cells[r] + " |")
		}
		b.WriteString("\n")
	}
	b.WriteString(compatEnd)
	want := b.String()

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	i, j := strings.Index(doc, compatBegin), strings.Index(doc, compatEnd)
	if i < 0 || j < i {
		t.Fatalf("README.md has no %q … %q block; it should read:\n%s", compatBegin, compatEnd, want)
	}
	if got := doc[i : j+len(compatEnd)]; got != want {
		t.Errorf("README.md compatibility table is stale; replace the block with:\n%s", want)
	}
}
