package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {999, 100 * 989.0 / 999}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: at least ten samples lie beyond the reported tail.
	for _, n := range []int{20, 21, 57, 100, 999, 1000, 1001, 12345} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		v := percentile(sorted, tailPercentile(n))
		if beyond := n - 1 - int(v); beyond < 10 {
			t.Errorf("n=%d: p%.4g leaves %d samples beyond it, want >= 10", n, tailPercentile(n), beyond)
		}
	}
}

func TestQuiet(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.25, 3}, {0.5, 5}, {0.625, 6}, {1, 9}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// A tenth of the samples are better than the quiet value: lower for a
	// time, higher for a throughput.
	ys := []float64{10, 0, 9, 1, 8, 2, 7, 3, 6, 4, 5}
	if lo, hi := quiet(ys, false), quiet(ys, true); lo != 1 || hi != 9 {
		t.Errorf("quiet = %v (lower is better), %v (higher is better), want 1, 9", lo, hi)
	}
	if quantile(nil, 0.25) != 0 || median([]float64{1, 2}) != 1.5 {
		t.Error("empty quantile is not 0 or the median of two is not their mean")
	}
}

func TestRecorderSummary(t *testing.T) {
	start := time.Now()
	const perSlice = sampleChunk + 1000 // spill into a second chunk
	const nSlices = 11
	recs := []*recorder{newRecorder(start, nSlices*time.Second, nSlices), newRecorder(start, nSlices*time.Second, nSlices)}
	for s := 0; s < nSlices; s++ {
		end := start.Add(time.Duration(s)*time.Second + time.Millisecond)
		// Slice s holds latencies (s+1)*1000 .. (s+1)*1000+perSlice-1 ns,
		// split between the two callers, so later slices are slower, and
		// s+1 payload units per op, so later slices carry more bytes.
		for i := 0; i < perSlice; i++ {
			recs[i%2].add(kindRead, end, int64((s+1)*1000+i), (s+1)*unitSize)
		}
	}
	recs[0].add(kindWrite, start.Add(20*time.Second), 7000, 0) // past the end: last slice
	// Two segments: the second repeats the first, so deciles stay put.
	sum := summarize([][]*recorder{recs, recs})
	if got := sum.Lat[kindRead].N; got != 2*nSlices*perSlice {
		t.Errorf("read sample count %d, want %d", got, 2*nSlices*perSlice)
	}
	if got := sum.Lat[kindWrite].N; got != 2 {
		t.Errorf("write sample count %d, want 2", got)
	}
	if sum.Slices != 2*nSlices || len(sum.SliceMBs) != 2*nSlices {
		t.Errorf("%d slices, %d throughputs, want %d", sum.Slices, len(sum.SliceMBs), 2*nSlices)
	}
	// The quiet decile of the latencies is the second fastest slice's.
	wantP50 := float64(2000+perSlice/2) / 1e3
	if got := sum.Lat[kindRead].P50us; got < wantP50-0.002 || got > wantP50+0.002 {
		t.Errorf("read p50 %.4f us, want %.4f", got, wantP50)
	}
	wantP99 := float64(2000+perSlice*99/100) / 1e3
	if got := sum.Lat[kindRead].TailUs; got < wantP99-0.002 || got > wantP99+0.002 {
		t.Errorf("read p99 %.4f us, want %.4f", got, wantP99)
	}
	if sum.Lat[kindRead].Tail != 99 || sum.Lat[kindWrite].Tail != 50 {
		t.Errorf("tails p%v / p%v, want p99 / p50", sum.Lat[kindRead].Tail, sum.Lat[kindWrite].Tail)
	}
	// And of the throughputs the second highest slice's, 1 s long.
	if want := float64(perSlice*(nSlices-1)*unitSize) / 1e6; sum.MBs != want {
		t.Errorf("mb_s %v, want %v", sum.MBs, want)
	}
}

func TestModelRanges(t *testing.T) {
	m := &model{seed: 7, opBytes: spanSize, ver: make([]uint32, 4)}
	whole := make([]byte, 2*spanSize)
	m.expect(whole, spanSize)
	part := make([]byte, unitSize)
	m.expect(part, spanSize+3*unitSize)
	if !slices.Equal(part, whole[3*unitSize:4*unitSize]) {
		t.Error("a unit inside a span does not match the span's payload")
	}
	if !m.check(whole, spanSize) {
		t.Error("check rejects expect's own bytes")
	}
	m.ver[2]++
	if m.check(whole, spanSize) {
		t.Error("check accepts a stale version")
	}
}

// benchmarkJSON is the subset of /BENCHMARK.json the smoke holds the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload for 0.3 s on shrunken arrays, untraced
// and traced, and asserts that exactly the workload and metric names of
// BENCHMARK.json are emitted, with its units, directions and bounds, and
// that no op failed — so the JSON and the code cannot drift.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, have)
	}

	better := func(d metricDef) string {
		if d.Higher {
			return "higher"
		}
		return "lower"
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, code has %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != better(d) || j.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != better(d) {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, j, d)
		}
	}

	cfg := &config{
		seed: 1, seconds: 0.3, out: t.TempDir(),
		copiesCap: 2, setupRuns: 1, warmup: time.Millisecond, ladderOps: 300, rebuildRun: 1,
	}
	check := func(t *testing.T, res *result, defs []metricDef) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.ErrorRate != 0 {
			t.Errorf("error_rate %v (%d of %d failed): %s", res.ErrorRate, res.Failed, res.Attempted, res.FirstErr)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("metric %s not emitted", d.Name)
			case v.Unit != d.Unit || v.Unit == "":
				t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", d.Name)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if !nameRE.MatchString(w.Name) {
				t.Errorf("workload name %q is outside [A-Za-z0-9_.-]+", w.Name)
			}
			res, err := runEndToEnd(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd)
			res, err = runTraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, perLayer)
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.Name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
