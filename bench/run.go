package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // the timed window of an end-to-end run
	out     string  // directory for result files, traces and array files

	// The smoke test shrinks the run: fewer layout copies per disk, one
	// trial (setupRuns), no warm-up. Real runs leave these zero.
	copiesCap  int
	setupRuns  int
	warmup     time.Duration
	ladderOps  int
	rebuildRun int // idle fail/rebuild cycles measured at least, after rebuildWarm unmeasured ones
}

// Idle fail/rebuild cycles. The first cycles after the load stops are up
// to twice as slow as the rest (a fresh spare to fault in, caches full of
// the window's data), so rebuildWarm of them run unmeasured before a
// stand-alone batch and one before each batch between a window's
// segments; rebuildShare of the window's length is spent on them, on top
// of it, because an in-memory cycle takes milliseconds and a handful
// follows whatever the host was doing in that tenth of a second.
const (
	rebuildWarm  = 5
	rebuildShare = 0.12
)

func (c *config) withDefaults() *config {
	d := *c
	if d.setupRuns == 0 {
		d.setupRuns = 3
	}
	if d.warmup == 0 {
		d.warmup = time.Second
	}
	if d.ladderOps == 0 {
		d.ladderOps = 20000
	}
	if d.rebuildRun == 0 {
		d.rebuildRun = 15
	}
	return &d
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value and Note how it was taken;
	// both are for the human-readable table and the result file.
	N    int    `json:"n,omitempty"`
	Note string `json:"note,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	ErrorRate float64          `json:"error_rate"`
	FirstErr  string           `json:"first_error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Window is the timed (untraced run: every trial's, in order) or traced
	// window, slice by slice.
	Window *windowSummary `json:"window,omitempty"`
	// RebuildSeconds are the samples rebuild_s is the quiet decile of.
	RebuildSeconds []float64 `json:"rebuild_seconds,omitempty"`
}

// A window is cut into slices and every reported number is the quiet
// decile over them (see quietShare), so slow stretches — a GC cycle, a
// neighbour on the host — move a report far less than they move a
// whole-window figure. Half-second slices still hold the 1000 samples per
// op type a p99 needs on every workload but the rebuild one, whose slice
// is one operator cycle; per-slice tails swing widely (0.4 to 3 ms from
// one half second to the next on the cluster workload).
//
// Off the rebuild workload the window is also cut into segments of five
// slices, and between them the load pauses for a batch of idle
// fail/rebuild cycles, so rebuild_s is sampled across the whole run like
// every other number.
const (
	sliceSeconds   = 0.5
	cycleSeconds   = 2.5
	segmentSeconds = 2.5
)

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// parts is how many pieces of about per seconds a span of d is cut into.
func parts(d time.Duration, per float64) int {
	return max(1, int(math.Round(d.Seconds()/per)))
}

// window runs one timed window of the load and returns its recorders,
// segment by segment, and the wall time of each fail/rebuild cycle
// measured in it: the operator's cycles under load on the rebuild
// workload, and with rebuilds set the idle cycles between segments
// elsewhere, which leave the array healthy.
func window(cfg *config, ld *load, d time.Duration, trace, rebuilds bool) ([][]*recorder, []float64, error) {
	if ld.w.Operator {
		n := parts(d, cycleSeconds)
		var secs []float64
		var opErr error
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			secs, opErr = ld.operate(start, d, n)
		}()
		recs := ld.run(d, n, trace)
		wg.Wait()
		return [][]*recorder{recs}, secs, opErr
	}
	nSegs := 1
	if rebuilds {
		nSegs = parts(d, segmentSeconds)
	}
	seg := d / time.Duration(nSegs)
	var segs [][]*recorder
	var secs []float64
	for i := 0; i < nSegs; i++ {
		segs = append(segs, ld.run(seg, parts(seg, sliceSeconds), trace))
		if !rebuilds {
			continue
		}
		floor := secondsToDuration(d.Seconds() * rebuildShare / float64(nSegs))
		cycles, err := ld.st.idleRebuilds(1, (cfg.rebuildRun+nSegs-1)/nSegs, floor)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range cycles {
			secs = append(secs, c.Seconds)
		}
		if i < nSegs-1 {
			if err := ld.st.failConfigured(); err != nil {
				return nil, nil, err
			}
		}
	}
	return segs, secs, nil
}

// runEndToEnd is the untraced run of one workload. It is cfg.setupRuns
// independent trials, each a timed set-up of a fresh stack, a warm-up, an
// equal share of the timed window with its fail/rebuild cycles, and the
// parity audit; the slices and cycles of all trials are reduced together.
// For as long as a stack lives, identical code runs a few per cent faster
// or slower on it than on the next — where its memory and files landed,
// which goroutines share a CPU (the cluster workload's stacks differ by a
// tenth) — and a report that draws on three stacks moves less than one
// that stands on the last of three. Three set-ups and no more: every
// set-up of a file-backed array writes and deletes its files, and the
// write-back and discards that nine of them left behind slowed the mmap
// workload's window by a tenth.
func runEndToEnd(c *config, w *workload) (*result, error) {
	cfg := c.withDefaults()
	res := newResult(w, false)
	var setups []float64
	var segs [][]*recorder
	trial := func(i int) error {
		tc := *cfg
		tc.seed += uint64(i) * payloadStep
		t0 := time.Now()
		st, err := setup(&tc, w, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		defer st.close()
		setups = append(setups, time.Since(t0).Seconds())
		ld := newLoad(&tc, st)
		ld.run(cfg.warmup, 0, false)
		s, secs, err := window(cfg, ld, secondsToDuration(cfg.seconds/float64(cfg.setupRuns)), false, true)
		res.count(ld)
		if err != nil {
			return err
		}
		segs = append(segs, s...)
		res.RebuildSeconds = append(res.RebuildSeconds, secs...)
		if err := st.verifyParity(); err != nil {
			res.fail(err)
		}
		return nil
	}
	for i := 0; i < cfg.setupRuns; i++ {
		if err := trial(i); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		// Drop the stack's memory before the next is built, so peak RSS is
		// one stack's, not an accident of GC timing. sync.Pool keeps its
		// contents (which reach the store) alive through one collection,
		// hence two.
		runtime.GC()
		debug.FreeOSMemory()
	}
	sum := summarize(segs)
	res.Window = &sum
	rebuildNote := "quiet decile of the operator's cycles under load"
	if !w.Operator {
		rebuildNote = "quiet decile of the idle fail/rebuild cycles between the window's segments"
	}
	overSlices := fmt.Sprintf("quiet decile of %d slices over %d trials", sum.Slices, len(setups))
	res.Metrics["setup_s"] = value{median(setups), "s", len(setups), "median of set-ups"}
	res.Metrics["mb_s"] = value{sum.MBs, "MB/s", int(sum.Ops), overSlices}
	for k, name := range kindName {
		l := sum.Lat[k]
		res.Metrics[name+"_p50_us"] = value{l.P50us, "us", l.N, overSlices}
		res.Metrics[name+"_p99_us"] = value{l.TailUs, "us", l.N, fmt.Sprintf("p%.4g, %s", l.Tail, overSlices)}
	}
	res.Metrics["rebuild_s"] = value{quiet(res.RebuildSeconds, false), "s", len(res.RebuildSeconds), rebuildNote}
	res.Metrics["peak_rss_mb"] = value{peakRSSMB(), "MB", 1, "getrusage ru_maxrss"}
	return res, nil
}

func newResult(w *workload, trace bool) *result {
	return &result{Workload: w.Name, Trace: trace, Metrics: map[string]value{}}
}

// count adds a load's op accounting to the result.
func (r *result) count(ld *load) {
	attempted, failed, err := ld.totals()
	r.Attempted += attempted
	r.Failed += failed
	if r.FirstErr == "" && err != nil {
		r.FirstErr = err.Error()
	}
	r.settle()
}

// fail counts a failed end-of-run audit as one more failed operation.
func (r *result) fail(err error) {
	r.Attempted++
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
	r.settle()
}

func (r *result) settle() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
}

// mallocCount is the process's cumulative heap allocation count.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
