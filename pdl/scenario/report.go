package scenario

import (
	"fmt"
	"io"
	"time"

	"repro/pdl/obs"
)

// EventRecord is what one scheduled event did: how long it took (the
// rebuild-budget SLO judges this) and whether it failed.
type EventRecord struct {
	Action Action        `json:"action"`
	Shard  int           `json:"shard"`
	Disk   int           `json:"disk"`
	Took   time.Duration `json:"took_ns"`
	Err    string        `json:"err,omitempty"`
}

// PhaseReport is one phase's measured outcome: the op counts and the
// latency window carved from the engine's cumulative histograms at the
// phase boundaries.
type PhaseReport struct {
	Name   string        `json:"name"`
	Ops    int64         `json:"ops"`
	Errors int64         `json:"errors"`
	Took   time.Duration `json:"took_ns"`

	// Foreground and Background summarize the phase's latency windows
	// by class.
	Foreground obs.Summary `json:"foreground"`
	Background obs.Summary `json:"background"`

	Events     []EventRecord `json:"events,omitempty"`
	Violations []string      `json:"violations,omitempty"`
}

// Report is a completed scenario run.
type Report struct {
	Scenario string        `json:"scenario"`
	Target   string        `json:"target"`
	Seed     uint64        `json:"seed"`
	Phases   []PhaseReport `json:"phases"`

	// UnitSize is the target's bytes per op — what turns a phase's op
	// count into its throughput.
	UnitSize int `json:"unit_size"`

	// BackgroundOps and BackgroundErrors total the scenario-wide
	// background workload (background errors are expected across kill
	// windows and never violate an SLO).
	BackgroundOps    int64 `json:"background_ops"`
	BackgroundErrors int64 `json:"background_errors"`

	// Violations flattens every phase's violated SLO clauses; empty
	// means the scenario passed.
	Violations []string `json:"violations,omitempty"`
}

// usec rounds a duration to the microsecond for display; below one
// microsecond (an in-memory store read) it is left in nanoseconds.
func usec(d time.Duration) time.Duration {
	if d < time.Microsecond {
		return d
	}
	return d.Round(time.Microsecond)
}

// WriteText renders the report as the human table the loadgen and
// scenario subcommands print: per phase one line with the percentile
// triple and one with the rate (decimal MB/s, 1 MB = 1e6 B, of the ops
// that succeeded), events indented beneath, violations last.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario %s  target=%s  seed=%d\n", r.Scenario, r.Target, r.Seed)
	for i := range r.Phases {
		p := &r.Phases[i]
		fg := &p.Foreground
		fmt.Fprintf(w, "  phase %-12s ops=%-8d errs=%-4d p50=%-10v p95=%-10v p99=%-10v mean=%v\n",
			p.Name, p.Ops, p.Errors, usec(fg.P50), usec(fg.P95), usec(fg.P99), usec(fg.Mean))
		if secs := p.Took.Seconds(); secs > 0 {
			fmt.Fprintf(w, "    rate         %.0f ops/s  %.1f MB/s  took=%v\n",
				float64(p.Ops)/secs, float64(p.Ops-p.Errors)*float64(r.UnitSize)/1e6/secs, usec(p.Took))
		}
		if p.Background.Count > 0 {
			fmt.Fprintf(w, "    background   ops=%-8d p99=%v\n", p.Background.Count, usec(p.Background.P99))
		}
		for j := range p.Events {
			ev := &p.Events[j]
			status := "ok"
			if ev.Err != "" {
				status = "FAILED: " + ev.Err
			}
			fmt.Fprintf(w, "    event %-10s shard=%d disk=%d took=%-10v %s\n", ev.Action, ev.Shard, ev.Disk, usec(ev.Took), status)
		}
	}
	if r.BackgroundOps > 0 || r.BackgroundErrors > 0 {
		fmt.Fprintf(w, "  background total ops=%d errs=%d\n", r.BackgroundOps, r.BackgroundErrors)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintln(w, "  SLO: pass")
		return
	}
	fmt.Fprintln(w, "  SLO: FAIL")
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    violation: %s\n", v)
	}
}
