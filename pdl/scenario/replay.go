package scenario

import (
	"fmt"
	"time"

	"repro/pdl/obs"
	"repro/pdl/sim"
)

// ReplayTrace replays a recorded request stream (see sim.DecodeTrace
// and serve's Frontend.RecordTrace) against the target. speed scales
// the recorded inter-arrival gaps: 1 replays with original timing, 2
// twice as fast, and <= 0 replays flat out with no pacing. Addresses
// recorded beyond the target's capacity wrap modulo capacity, so a
// trace from a big deployment still drives a small test array — the
// report is only a faithful reproduction when the geometries match
// (compare tr.UnitSize with the target's). The report has one phase,
// "replay", whose Foreground and Background windows split the latency
// by the class each op was recorded on.
func ReplayTrace(tgt Target, tr *sim.Trace, speed float64) (*Report, error) {
	if len(tr.Ops) == 0 {
		return nil, fmt.Errorf("scenario: replay: empty trace")
	}
	cap := tgt.Capacity()
	if cap < 1 {
		return nil, fmt.Errorf("scenario: replay: target has no capacity")
	}
	var fg, bg obs.Hist
	rep := PhaseReport{Name: "replay"}
	buf := make([]byte, tgt.UnitSize())
	start := time.Now()
	var elapsed time.Duration
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if speed > 0 && op.Delta > 0 {
			elapsed += time.Duration(float64(op.Delta) / speed)
			if d := time.Until(start.Add(elapsed)); d > 0 {
				time.Sleep(d)
			}
		}
		logical := op.Logical % cap
		if op.Kind == sim.Write {
			fill(buf, payloadKey(uint64(tr.UnitSize), logical, uint64(i)))
		}
		t0 := time.Now()
		var err error
		if op.Kind == sim.Write {
			err = tgt.Write(logical, buf, op.Background)
		} else {
			err = tgt.Read(logical, buf, op.Background)
		}
		d := time.Since(t0)
		rep.Ops++
		if err != nil {
			rep.Errors++
			continue
		}
		if op.Background {
			bg.Record(d)
		} else {
			fg.Record(d)
		}
	}
	rep.Took = time.Since(start)
	rep.Foreground = fg.Summary()
	rep.Background = bg.Summary()
	return &Report{Scenario: "replay", Target: tgt.Name(), UnitSize: tgt.UnitSize(), Phases: []PhaseReport{rep}}, nil
}
