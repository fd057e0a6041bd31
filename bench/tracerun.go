package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/pdl"
	"repro/pdl/obs"
)

// micro returns the median per-call cost in ns of fn, timed in batches
// because one call is shorter than a clock read.
func micro(fn func(i int)) float64 {
	const calls, batches = 1000, 51
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(b*calls + i)
		}
		per = append(per, float64(time.Since(t0))/calls)
	}
	return median(per)
}

// traced is everything a traced run keeps beyond its result.
type traced struct {
	ld            *load
	ladder        *ladder
	untraced, sum windowSummary
	window        counters
}

// runTraced is the traced run of one workload: the whole stack on the
// workload's configuration, an untraced and a traced window a third of
// an end-to-end window each, the ladder, idle fail/rebuild cycles, and
// the parity audit. It reports every per-layer metric and writes
// <out>/trace-<workload>.json.
func runTraced(c *config, w *workload) (*result, error) {
	cfg := c.withDefaults()
	epoch := time.Now()

	var builds []float64
	var opts []pdl.Option
	if w.Parity > 1 {
		opts = append(opts, pdl.WithParityShards(w.Parity))
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := pdl.Build(g17V, g17K, opts...); err != nil {
			return nil, err
		}
		builds = append(builds, float64(time.Since(t0))/1e3)
	}

	st, err := setup(cfg, w, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer st.close()
	ld := newLoad(cfg, st)
	ld.epoch = epoch
	ld.run(min(cfg.warmup, time.Second), 0, false)

	tr := &traced{ld: ld}
	d := secondsToDuration(cfg.seconds / 3)
	segs, _, err := window(cfg, ld, d, false, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	tr.untraced = summarize(segs)
	before := st.snapshot()
	if segs, _, err = window(cfg, ld, d, true, false); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	tr.sum = summarize(segs)
	tr.window = st.snapshot().sub(before)

	// The ladder replays on the health the window ran in: the operator's
	// disks go down again for it, and the rebuild cycles below bring
	// them back.
	if w.Operator {
		for _, disk := range w.RebuildDisks {
			if err := st.shards[0].fail(disk); err != nil {
				return nil, fmt.Errorf("%s: fail disk %d for the ladder: %w", w.Name, disk, err)
			}
		}
	}
	tr.ladder = newLadder(cfg, ld)
	tr.ladder.run()

	cycles, err := st.idleRebuilds(rebuildWarm, cfg.rebuildRun, secondsToDuration(cfg.seconds*rebuildShare))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	res := newResult(w, true)
	res.count(ld)
	res.Attempted += tr.ladder.attempted
	res.Failed += tr.ladder.failed
	if res.FirstErr == "" && tr.ladder.firstErr != nil {
		res.FirstErr = tr.ladder.firstErr.Error()
	}
	res.settle()
	res.Window = &tr.sum
	if err := st.verifyParity(); err != nil {
		res.fail(err)
	}
	tr.metrics(res, builds, cycles)
	tr.printTable(os.Stdout)
	if err := tr.writeFile(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// metrics fills res with every per-layer metric.
func (tr *traced) metrics(res *result, builds []float64, cycles []rebuildSample) {
	st, l, w := tr.ld.st, tr.ladder, tr.ld.st.w
	put := func(name, unit string, v float64, n int, note string) {
		res.Metrics[name] = value{v, unit, n, note}
	}
	rungMed := func(metric, name string, kind int) {
		r := l.rung(name)
		put(metric, "ns", r.MedianNs[kind], r.N[kind], "ladder rung "+name+", "+r.Kinds[kind])
	}

	mapper := st.shards[0].st.Mapper()
	units := mapper.DataUnits()
	put("pdl.build_us", "us", median(builds), len(builds), "pdl.Build(17, 5)")
	put("pdl.layout_units_per_disk", "count", float64(st.layout.Layout.Size), 1, "exact")
	put("pdl.map_ns", "ns", micro(func(i int) { mapper.Map(i % units) }), 51, "Mapper.Map, batches of 1000")

	rungMed("code.encode_ns", "code", codeEncode)
	rungMed("code.update_ns", "code", codeUpdate)
	rungMed("code.reconstruct_ns", "code", codeReconstruct)
	r := l.rung("plan")
	put("plan.compile_ns", "ns", (r.MedianNs[kindRead]*float64(r.N[kindRead])+r.MedianNs[kindWrite]*float64(r.N[kindWrite]))/
		float64(max(1, r.N[kindRead]+r.N[kindWrite])), r.N[kindRead]+r.N[kindWrite],
		fmt.Sprintf("ReadM/WriteM, batches of %d, read and write medians weighted by the stream's mix", planBatch))
	put("plan.steps_per_op", "count", l.stepsPerOp, planBatch*(r.N[kindRead]+r.N[kindWrite]), "mean steps per compiled plan; exact for a seed")

	rungMed("store.read_ns", "store", kindRead)
	rungMed("store.write_ns", "store", kindWrite)
	win := tr.window
	userUnits := float64(tr.sum.Bytes) / unitSize
	put("store.disk_reads_per_op", "count", ratio(float64(win.DiskReads), userUnits), int(tr.sum.Ops), "traced window, per 4 KiB of payload")
	put("store.disk_writes_per_op", "count", ratio(float64(win.DiskWrites), userUnits), int(tr.sum.Ops), "traced window, per 4 KiB of payload")
	put("store.disk_bytes_per_user_byte", "ratio", ratio(float64(win.DiskBytes), float64(tr.sum.Bytes)), int(tr.sum.Ops), "traced window")
	put("store.degraded_op_ratio", "ratio", ratio(float64(win.Degraded), float64(win.DiskReads+win.DiskWrites)), int(tr.sum.Ops), "traced window, degraded disk ops / disk ops")

	var mbs, frac, imb, allocs []float64
	for _, c := range cycles {
		mbs = append(mbs, ratio(float64(c.Bytes)/1e6, c.Seconds))
		frac = append(frac, c.ReadFrac)
		imb = append(imb, c.Imbalance)
		allocs = append(allocs, float64(c.Mallocs)/float64(c.Calls))
	}
	n := len(cycles)
	put("store.rebuild_mb_s", "MB/s", median(mbs), n, "idle fail/rebuild cycles, bytes reconstructed per second")
	put("store.rebuild_survivor_read_fraction", "ratio", median(frac), n, "survivor unit reads / disk units, per Rebuild call")
	put("store.rebuild_read_imbalance", "ratio", median(imb), n, "max/min reads over surviving disks")
	put("store.rebuild_allocs", "count", median(allocs), n, "heap allocations per Rebuild call")

	rungMed("store.backend_read_ns", "backend", kindRead)
	rungMed("store.backend_write_ns", "backend", kindWrite)

	// Counts come from the traced window where the workload drives the
	// layer, else from the ladder rung that enters at it.
	rungMed("serve.frontend_do_ns", "frontend", kindRead)
	fc, src := win, "traced window"
	if !layerAtOrAbove(w.Entry, entryFrontend) {
		fc, src = l.rung("frontend").diff, "ladder rung frontend"
	}
	put("serve.batch_mean_ops", "count", ratio(float64(fc.BatchedOps), float64(fc.Batches)), int(fc.Batches), src)
	put("serve.flush_deadline_ratio", "ratio", ratio(float64(fc.FlushDeadline), float64(fc.Batches)), int(fc.Batches), src)
	put("serve.rejected", "count", float64(fc.Rejected), int(fc.BatchedOps), src)

	rungMed("serve.tcp_rtt_ns", "serve.unit", kindRead)
	rungMed("serve.span_ns", "serve.span", kindRead)

	cm := st.cluster.Map()
	cunits := cm.Units()
	put("cluster.locate_ns", "ns", micro(func(i int) { cm.Locate(int64(i) % cunits) }), 51, "Map.Locate, batches of 1000")
	rungMed("cluster.span_ns", "cluster.span", kindRead)
	cc, cops, src := win, tr.sum.Ops, "traced window"
	if w.Entry != entryCluster {
		cr := l.rung("cluster.span")
		cc, cops, src = cr.diff, int64(cr.N[kindRead]+cr.N[kindWrite]), "ladder rung cluster.span"
	}
	put("cluster.legs_per_op", "count", ratio(float64(cc.Legs), float64(cops)), int(cops), src)
	put("cluster.retries", "count", float64(cc.Retries), int(cops), src)
	put("cluster.failures", "count", float64(cc.Failures), int(cops), src)

	var h obs.Hist
	put("obs.record_ns", "ns", micro(func(i int) { h.RecordNanos(int64(i)) }), 51, "Hist.RecordNanos, batches of 1000")

	ops := float64(tr.sum.Ops)
	put("proc.allocs_per_op", "count", ratio(float64(win.Mallocs), ops), int(tr.sum.Ops), "traced window, whole process")
	put("proc.cpu_us_per_op", "us", ratio(float64(win.CPU)/1e3, ops), int(tr.sum.Ops), "traced window, rusage user+sys")
	put("proc.gc_pause_us", "us", float64(win.GCPause)/1e3, int(tr.sum.Ops), "traced window, total stop-the-world pause")
}

// overhead is the traced window's throughput over the untraced one's.
func (tr *traced) overhead() float64 { return ratio(tr.sum.MBs, tr.untraced.MBs) }

// printTable prints "ns per 4 KiB op and per 64 KiB span added by each
// layer": every rung's medians, and beside them the rung's self time —
// its median minus the rung below (for the store, minus the price of its
// plan's backend and codec calls and the compile).
func (tr *traced) printTable(w io.Writer) {
	l := tr.ladder
	fmt.Fprintf(w, "\nns per 4 KiB op and per 64 KiB span added by each layer — %s\n", tr.ld.w.Name)
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %12s %9s\n", "rung", "read ns", "read self", "write ns", "write self", "n")
	plan := l.rung("plan")
	row := func(name, below string) {
		r := l.rung(name)
		self := [numKinds]float64{}
		for k := range self {
			switch {
			case name == "store":
				self[k] = r.MedianNs[k] - l.belowStore[k] - plan.MedianNs[k]
			case below != "":
				self[k] = r.MedianNs[k] - l.rung(below).MedianNs[k]
			default:
				self[k] = r.MedianNs[k]
			}
		}
		fmt.Fprintf(w, "  %-14s %12.0f %12.0f %12.0f %12.0f %9d\n", name,
			r.MedianNs[kindRead], self[kindRead], r.MedianNs[kindWrite], self[kindWrite], r.N[kindRead]+r.N[kindWrite])
	}
	fmt.Fprintln(w, "  4 KiB op:")
	row("cluster.unit", "serve.unit")
	row("serve.unit", "frontend")
	row("frontend", "store")
	row("store", "")
	row("plan", "")
	row("backend", "")
	c := l.rung("code")
	fmt.Fprintf(w, "  %-14s encode %.0f  update %.0f  reconstruct %.0f  (n=%d each)\n", "code",
		c.MedianNs[codeEncode], c.MedianNs[codeUpdate], c.MedianNs[codeReconstruct], c.N[codeEncode])
	fmt.Fprintf(w, "  %-14s read %.0f  write %.0f  (a plan's backend and codec calls at the medians above, median over the stream)\n",
		"below store", l.belowStore[kindRead], l.belowStore[kindWrite])
	fmt.Fprintln(w, "  64 KiB span:")
	row("cluster.span", "serve.span")
	row("serve.span", "")
	fmt.Fprintf(w, "  trace_overhead_ratio %.4f (traced %.2f MB/s / untraced %.2f MB/s)\n",
		tr.overhead(), tr.sum.MBs, tr.untraced.MBs)
}

// traceFile is the header of trace-<workload>.json; the spans follow it
// in the same object (see writeFile).
type traceFile struct {
	Env           environment `json:"env"`
	Result        *result     `json:"result"`
	OverheadRatio float64     `json:"trace_overhead_ratio"`
	TracedMBs     float64     `json:"traced_mb_s"`
	UntracedMBs   float64     `json:"untraced_mb_s"`
	Rungs         []*rung     `json:"rungs"`
	SpanColumns   []string    `json:"span_columns"`
}

// writeFile writes the spans kept in memory: rung 0 is the root (one
// span per op of the traced window at the workload's entry layer, op id
// caller<<40|sequence), rungs 1.. are the ladder's (op id = position in
// caller 0's stream). Each span is one row [rung, kind, op, start_ns,
// end_ns], times in ns since the run began.
func (tr *traced) writeFile(cfg *config, res *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	w := tr.ld.w
	path := filepath.Join(cfg.out, "trace-"+w.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	root := &rung{Name: "root:" + w.Entry, Kinds: kindName[:], Batch: 1}
	head, err := json.Marshal(traceFile{
		Env: newEnvironment(cfg, []*workload{w}), Result: res,
		OverheadRatio: tr.overhead(), TracedMBs: tr.sum.MBs, UntracedMBs: tr.untraced.MBs,
		Rungs:       append([]*rung{root}, tr.ladder.rungs...),
		SpanColumns: []string{"rung", "kind", "op", "start_ns", "end_ns"},
	})
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.Write(head[:len(head)-1]) // reopen the object for the spans
	bw.WriteString(`,"spans":[`)
	first := true
	var row []byte
	emit := func(rung, kind int, s span) {
		row = row[:0]
		if !first {
			row = append(row, ',')
		}
		first = false
		row = append(row, "\n["...)
		row = strconv.AppendInt(row, int64(rung), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(kind), 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Op, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.Start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.End, 10)
		row = append(row, ']')
		bw.Write(row)
	}
	for _, c := range tr.ld.callers {
		for _, s := range c.spans {
			emit(0, int(s.Kind), s)
		}
	}
	for _, r := range tr.ladder.rungs {
		for _, s := range r.spans {
			emit(r.idx, int(s.Kind), s)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
