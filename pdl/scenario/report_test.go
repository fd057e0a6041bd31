package scenario_test

import (
	"bytes"
	"testing"
	"time"

	"repro/pdl/obs"
	"repro/pdl/scenario"
)

// TestReportWriteText pins the text every loadgen and scenario
// subcommand prints: the percentile line, the rate line (decimal MB/s
// over the ops that succeeded), microsecond rounding with sub-µs values
// left alone, background and event lines, and the violation list.
func TestReportWriteText(t *testing.T) {
	rep := &scenario.Report{
		Scenario: "golden",
		Target:   "store",
		Seed:     7,
		UnitSize: 4096,
		Phases: []scenario.PhaseReport{
			{
				Name: "healthy",
				Ops:  1000,
				Took: 500 * time.Millisecond,
				Foreground: obs.Summary{
					Count: 1000, P50: 512 * time.Nanosecond, P95: 2048 * time.Nanosecond,
					P99: 1048576 * time.Nanosecond, Mean: 1234 * time.Nanosecond,
				},
			},
			{
				Name:       "degraded",
				Ops:        200,
				Errors:     100,
				Took:       250*time.Millisecond + 499*time.Nanosecond,
				Foreground: obs.Summary{Count: 100, P50: 16384, P95: 32768, P99: 65536, Mean: 20000},
				Background: obs.Summary{Count: 40, P99: 131072},
				Events: []scenario.EventRecord{
					{Action: scenario.ActFail, Disk: 3, Took: 2402 * time.Microsecond},
					{Action: scenario.ActRebuild, Shard: 1, Took: time.Second, Err: "no spare"},
				},
			},
			{Name: "idle"},
		},
		BackgroundOps:    40,
		BackgroundErrors: 2,
		Violations:       []string{"store/degraded: 100 op errors, over the 0 allowed"},
	}
	const want = `scenario golden  target=store  seed=7
  phase healthy      ops=1000     errs=0    p50=512ns      p95=2µs        p99=1.049ms    mean=1µs
    rate         2000 ops/s  8.2 MB/s  took=500ms
  phase degraded     ops=200      errs=100  p50=16µs       p95=33µs       p99=66µs       mean=20µs
    rate         800 ops/s  1.6 MB/s  took=250ms
    background   ops=40       p99=131µs
    event fail       shard=0 disk=3 took=2.402ms    ok
    event rebuild    shard=1 disk=0 took=1s         FAILED: no spare
  phase idle         ops=0        errs=0    p50=0s         p95=0s         p99=0s         mean=0s
  background total ops=40 errs=2
  SLO: FAIL
    violation: store/degraded: 100 op errors, over the 0 allowed
`
	var got bytes.Buffer
	rep.WriteText(&got)
	if got.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", got.String(), want)
	}

	got.Reset()
	(&scenario.Report{Scenario: "ok", Target: "serve"}).WriteText(&got)
	if want := "scenario ok  target=serve  seed=0\n  SLO: pass\n"; got.String() != want {
		t.Errorf("WriteText of an empty passing report = %q, want %q", got.String(), want)
	}
}
