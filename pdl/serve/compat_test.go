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

// v1ClientCells sends a wire v1 client's hello, unit read and unit write
// to the current server: each is refused by name, and so is every row.
func v1ClientCells(t *testing.T) []string {
	t.Helper()
	as, _, _ := compatServer(t, 1)
	refuseV1(t, dialRawV2(t, as.addr), compatUnit)
	cells := make([]string, len(compatFeatures))
	for i := range cells {
		cells[i] = fmt.Sprintf("refused at hello: `%v`", wire.ErrV1Retired)
	}
	return cells
}

// v2ClientCells drives the current client against a v1-only server
// (format 0: the stub of interop_test.go, which has no array behind it),
// which it must refuse at Dial, or against the current server over an
// array of the given format.
func v2ClientCells(t *testing.T, format int) []string {
	t.Helper()
	if format == 0 {
		addr := startV1Server(t, compatUnit, 256)
		// What any binary does with a manifest newer than it knows — the
		// rule a v1-era server applies to format 2.
		newer := fmt.Sprintf(`{"version": %d}`, array.FormatVersion+1)
		if _, err := array.DecodeManifest([]byte(newer)); !errors.Is(err, array.ErrVersion) {
			t.Fatalf("manifest version %d: %v, want ErrVersion", array.FormatVersion+1, err)
		}
		c, err := serve.Dial(addr, serve.WithConns(2))
		if err == nil {
			c.Close()
			t.Fatal("Dial accepted a server without byte spans")
		}
		if !strings.Contains(err.Error(), "wire v1") {
			t.Fatalf("Dial against a v1 server: %v, want the v1 answer named", err)
		}
		cells := []string{"format 1 only: a binary refuses formats newer than it knows (`ErrVersion`)"}
		for range compatFeatures[1:] {
			cells = append(cells, "refused at Dial")
		}
		return cells
	}
	as, _, cell := compatServer(t, format)
	cells := []string{cell}
	c, err := serve.Dial(as.addr, serve.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	feats := "no features"
	if c.Features()&wire.FeatByteSpans != 0 {
		feats = "byte spans"
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
	if nStreams, nOther := streams()-streams0, counter(t, reg, "pdl_serve_client_requests_total")-requests0; nStreams == 0 || nOther != 0 {
		t.Fatalf("span moved as %d streams and %d other requests", nStreams, nOther)
	}
	cells = append(cells, "byte spans, partial edges under the stripe lock")

	down := 0
	for d := 0; d < c.Disks() && c.Fail(d) == nil; d++ {
		down++
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fd := st.Store.FailedDisks; len(fd) != down || fd[0] != 0 {
		t.Fatalf("FailedDisks = %v after failing disks 0..%d", fd, down-1)
	}
	for i := 0; i < down; i++ {
		if err := c.Rebuild(); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	if healed, err := c.Stats(); err != nil || len(healed.Store.FailedDisks) != 0 {
		t.Fatalf("after rebuilding: FailedDisks = %v, err %v", healed.Store.FailedDisks, err)
	}
	cells = append(cells, fmt.Sprintf("ok; up to %d down at once", down),
		fmt.Sprintf("%v / %s / %d", st.Store.FailedDisks, st.Store.Codec, st.Store.ParityShards))
	return cells
}

// TestCompatTable derives the README's wire × manifest compatibility
// table by running each pairing, and fails when the README is stale.
func TestCompatTable(t *testing.T) {
	cols := []struct {
		head  string
		cells []string
	}{
		{"v1 client → this server", v1ClientCells(t)},
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
