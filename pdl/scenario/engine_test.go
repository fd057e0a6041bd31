package scenario_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// newStoreTarget builds a MemDisk-backed 13-disk array target.
func newStoreTarget(t testing.TB, unitSize int) *scenario.StoreTarget {
	t.Helper()
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, unitSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &scenario.StoreTarget{S: s}
}

// failRebuildScenario is the canonical script: healthy baseline, fail a
// disk under load, rebuild under load, then assert recovery.
func failRebuildScenario(seed uint64) *scenario.Scenario {
	load := scenario.Load{Workers: 4, Ops: 400, WriteFrac: 0.4}
	return &scenario.Scenario{
		Name:   "fail-rebuild",
		Seed:   seed,
		Verify: true,
		Phases: []scenario.Phase{
			{Name: "healthy", Load: load},
			{
				Name: "degraded",
				Load: load,
				Events: []scenario.Event{
					{Action: scenario.ActFail, Disk: 3, AtOps: 50},
				},
			},
			{
				Name: "rebuild",
				Load: load,
				Events: []scenario.Event{
					{Action: scenario.ActRebuild, AtOps: 50},
				},
				SLO: &scenario.SLO{MaxRebuild: time.Minute, RequireHealthy: true},
			},
			{Name: "recovered", Load: load, SLO: &scenario.SLO{RequireHealthy: true}},
		},
	}
}

// TestRunStoreFailRebuild runs the canonical script against a bare
// store with verify mode on: every read checked against the model,
// final sweep, parity verified afterward.
func TestRunStoreFailRebuild(t *testing.T) {
	tgt := newStoreTarget(t, 32)
	rep, err := scenario.Run(failRebuildScenario(42), tgt)
	if err != nil {
		t.Fatalf("Run: %v (violations: %v)", err, rep.Violations)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("got %d phase reports, want 4", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Ops != 400 {
			t.Errorf("phase %s ran %d ops, want 400", p.Name, p.Ops)
		}
		if p.Errors != 0 {
			t.Errorf("phase %s saw %d errors", p.Name, p.Errors)
		}
		if p.Foreground.Count == 0 || p.Foreground.P99 == 0 {
			t.Errorf("phase %s has an empty latency window: %+v", p.Name, p.Foreground)
		}
	}
	if got := rep.Phases[2].Events[0]; got.Action != scenario.ActRebuild || got.Took <= 0 || got.Err != "" {
		t.Errorf("rebuild event record = %+v", got)
	}
	if err := tgt.S.VerifyParity(); err != nil {
		t.Errorf("parity after scenario: %v", err)
	}
	if len(tgt.S.FailedDisks()) != 0 {
		t.Errorf("disks still failed after rebuild: %v", tgt.S.FailedDisks())
	}
}

// TestRunDeterminism pins the acceptance criterion: one seed, two runs,
// identical event orderings and op counts.
func TestRunDeterminism(t *testing.T) {
	var reps [2]*scenario.Report
	for i := range reps {
		tgt := newStoreTarget(t, 32)
		rep, err := scenario.Run(failRebuildScenario(7), tgt)
		if err != nil {
			t.Fatalf("run %d: %v (violations: %v)", i, err, rep.Violations)
		}
		reps[i] = rep
	}
	a, b := reps[0], reps[1]
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase counts diverge: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		pa, pb := &a.Phases[i], &b.Phases[i]
		if pa.Ops != pb.Ops || pa.Errors != pb.Errors {
			t.Errorf("phase %s: ops %d/%d errs %d/%d diverge", pa.Name, pa.Ops, pb.Ops, pa.Errors, pb.Errors)
		}
		if len(pa.Events) != len(pb.Events) {
			t.Fatalf("phase %s: event counts diverge", pa.Name)
		}
		for j := range pa.Events {
			ea, eb := pa.Events[j], pb.Events[j]
			if ea.Action != eb.Action || ea.Shard != eb.Shard || ea.Disk != eb.Disk || (ea.Err == "") != (eb.Err == "") {
				t.Errorf("phase %s event %d diverges: %+v vs %+v", pa.Name, j, ea, eb)
			}
		}
	}
}

// TestRunSLOViolation proves an impossible latency bound fails the run
// with ErrSLO and a report naming the clause.
func TestRunSLOViolation(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "impossible",
		Seed: 1,
		Phases: []scenario.Phase{
			{
				Name: "strict",
				Load: scenario.Load{Workers: 2, Ops: 100},
				SLO:  &scenario.SLO{MaxP99: time.Nanosecond},
			},
		},
	}
	rep, err := scenario.Run(sc, newStoreTarget(t, 32))
	if !errors.Is(err, scenario.ErrSLO) {
		t.Fatalf("err = %v, want ErrSLO", err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violations reported")
	}
}

// TestRunRatioClause pins the degraded-vs-healthy ratio judgment: an
// absurdly generous ratio passes, an impossibly tight one fails.
func TestRunRatioClause(t *testing.T) {
	load := scenario.Load{Workers: 2, Ops: 200, WriteFrac: 0.3}
	build := func(ratio float64) *scenario.Scenario {
		return &scenario.Scenario{
			Name: "ratio",
			Seed: 5,
			Phases: []scenario.Phase{
				{Name: "healthy", Load: load},
				{
					Name:   "degraded",
					Load:   load,
					Events: []scenario.Event{{Action: scenario.ActFail, Disk: 1, AtOps: 10}},
					SLO:    &scenario.SLO{MaxP99Ratio: ratio, P99RatioTo: "healthy"},
				},
			},
		}
	}
	if rep, err := scenario.Run(build(1e9), newStoreTarget(t, 32)); err != nil {
		t.Fatalf("generous ratio: %v (violations: %v)", err, rep.Violations)
	}
	// Histogram buckets are powers of two, so a ratio below 2^-63 is
	// unsatisfiable by construction.
	if _, err := scenario.Run(build(1e-20), newStoreTarget(t, 32)); !errors.Is(err, scenario.ErrSLO) {
		t.Fatalf("impossible ratio: err = %v, want ErrSLO", err)
	}
}

// TestRunFrontendBackground drives a Frontend target with a background
// workload paused and resumed by schedule, touching the real priority
// classes.
func TestRunFrontendBackground(t *testing.T) {
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := serve.New(s, serve.Config{QueueDepth: 16})
	t.Cleanup(func() {
		f.Close()
		s.Close()
	})
	sc := &scenario.Scenario{
		Name:       "bg-pause",
		Seed:       11,
		Verify:     true,
		Background: &scenario.Load{Workers: 2, WriteFrac: 0.5},
		Phases: []scenario.Phase{
			{
				Name: "quiet",
				Load: scenario.Load{Workers: 2, Ops: 300, WriteFrac: 0.5},
				Events: []scenario.Event{
					{Action: scenario.ActPauseBackground, AtOps: 20},
					{Action: scenario.ActResumeBackground, AtOps: 200},
				},
			},
		},
	}
	rep, err := scenario.Run(sc, &scenario.FrontendTarget{F: f})
	if err != nil {
		t.Fatalf("Run: %v (violations: %v)", err, rep.Violations)
	}
	if rep.BackgroundOps == 0 {
		t.Error("background workload never ran")
	}
	if rep.BackgroundErrors != 0 {
		t.Errorf("background saw %d errors", rep.BackgroundErrors)
	}
	st := f.Stats()
	if st.Background == 0 {
		t.Error("no ops rode the background class")
	}
}

// TestRunEventFailureIsViolation proves a failed scheduled event (fail
// on a target that cannot inject) surfaces as an SLO failure, not a
// silent no-op.
func TestRunEventFailureIsViolation(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "bad-event",
		Seed: 1,
		Phases: []scenario.Phase{
			{
				Name:   "only",
				Load:   scenario.Load{Workers: 1, Ops: 50},
				Events: []scenario.Event{{Action: scenario.ActFail, Shard: 7, Disk: 0, AtOps: 5}},
			},
		},
	}
	rep, err := scenario.Run(sc, newStoreTarget(t, 32))
	if !errors.Is(err, scenario.ErrSLO) {
		t.Fatalf("err = %v, want ErrSLO", err)
	}
	if len(rep.Phases[0].Events) != 1 || rep.Phases[0].Events[0].Err == "" {
		t.Fatalf("event record = %+v, want recorded failure", rep.Phases[0].Events)
	}
}

// emptyTarget is a target with nothing to address — what a cluster
// target becomes when its op size exceeds the namespace.
type emptyTarget struct{ capacity, unit int }

func (t emptyTarget) Name() string                  { return "empty" }
func (t emptyTarget) UnitSize() int                 { return t.unit }
func (t emptyTarget) Capacity() int                 { return t.capacity }
func (t emptyTarget) Read(int, []byte, bool) error  { return nil }
func (t emptyTarget) Write(int, []byte, bool) error { return nil }

// TestRunRejectsEmptyTarget pins that a target of zero units (or
// zero-byte units) is an error from Run, not a panic in a worker
// goroutine's generator.
func TestRunRejectsEmptyTarget(t *testing.T) {
	sc := &scenario.Scenario{
		Name:   "empty",
		Seed:   1,
		Phases: []scenario.Phase{{Name: "only", Load: scenario.Load{Workers: 2, Ops: 10}}},
	}
	for _, tgt := range []emptyTarget{{capacity: 0, unit: 64}, {capacity: 8, unit: 0}} {
		rep, err := scenario.Run(sc, tgt)
		if err == nil || rep != nil || !strings.Contains(err.Error(), "empty") {
			t.Errorf("Run(%+v) = %v, %v; want an error naming the target", tgt, rep, err)
		}
	}
}
