package scenariotest_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/pdl/cluster"
	"repro/pdl/scenario"
	"repro/pdl/scenario/scenariotest"
	"repro/pdl/serve"
)

// The regression table: every checked-in schedule runs against every
// target layer. One schedule file asserts the degraded/rebuild latency
// contract at the array, the wire, and the cluster simultaneously —
// the paper's claim (declustering keeps degraded service usable) is a
// property of the layout, so it must hold wherever the layout serves.

// clusterGeometry builds the canonical three-shard fleet for table
// runs. Shard-units are 64 bytes while the scenario moves 96-byte
// units, deliberately unaligned with the shard-unit, so ops exercise the
// cross-shard split path.
func clusterGeometry(t *testing.T, arr scenariotest.Array, opts cluster.Options) *scenario.ClusterTarget {
	t.Helper()
	tc := scenariotest.StartCluster(t, arr, 64, []int64{24, 36, 48}, cluster.ByCapacity, serve.Config{})
	return tc.NewCluster(t, 96, opts)
}

func readSchedule(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.ReadScheduleFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return scenariotest.Scale(sc, scenariotest.Ops(400))
}

func TestRegressionTable(t *testing.T) {
	schedules := []struct {
		name string
		arr  scenariotest.Array
		file string
	}{
		{"xor-1fail", scenariotest.Array{}, "fail_rebuild.json"},
		{"rs-1fail", scenariotest.Array{ParityShards: 2}, "fail_rebuild.json"},
		{"rs-2fail", scenariotest.Array{ParityShards: 2}, "fail2_rebuild.json"},
	}
	targets := []struct {
		name string
		open func(t *testing.T, arr scenariotest.Array) scenario.Target
	}{
		{"store", func(t *testing.T, arr scenariotest.Array) scenario.Target {
			return scenariotest.NewStore(t, arr)
		}},
		{"serve", func(t *testing.T, arr scenariotest.Array) scenario.Target {
			return scenariotest.NewServe(t, arr, serve.Config{})
		}},
		{"cluster", func(t *testing.T, arr scenariotest.Array) scenario.Target {
			return clusterGeometry(t, arr, cluster.Options{})
		}},
	}
	for _, sched := range schedules {
		for _, tgt := range targets {
			t.Run(sched.name+"/"+tgt.name, func(t *testing.T) {
				t.Parallel()
				sc := readSchedule(t, sched.file)
				scenariotest.Run(t, sc, tgt.open(t, sched.arr))
			})
		}
	}
}

// TestClusterKillRestart scripts a shard outage mid-traffic: kill one
// shard's server, let clients retry into the hole, revive it on the
// same port, and require clean health and checkable data afterward.
// The restart trigger pairs at_ops with a wall-clock floor so the
// revival lands inside the client retry budget (8 doubling retries
// from 5ms ≈ 1.3s).
func TestClusterKillRestart(t *testing.T) {
	tgt := clusterGeometry(t, scenariotest.Array{}, cluster.Options{
		DialTimeout:  2 * time.Second,
		Retries:      8,
		RetryBackoff: 5 * time.Millisecond,
	})
	ops := scenariotest.Ops(400)
	sc := &scenario.Scenario{
		Name:   "kill-restart",
		Seed:   271,
		Verify: true,
		Phases: []scenario.Phase{
			{
				Name: "healthy",
				Load: scenario.Load{Workers: 4, Ops: ops, WriteFrac: 0.4},
				SLO:  &scenario.SLO{},
			},
			{
				Name: "outage",
				Load: scenario.Load{Workers: 4, Ops: ops, WriteFrac: 0.4},
				Events: []scenario.Event{
					{Action: scenario.ActKill, Shard: 2, AtOps: ops / 8},
					{Action: scenario.ActRestart, Shard: 2, AtOps: ops / 8, At: 100 * time.Millisecond},
				},
				// The retry path may still surface errors at the budget's
				// edge; the phase tolerates them — the contract is that
				// "after" is clean and every modeled byte checks out.
				SLO: &scenario.SLO{MaxErrors: -1},
			},
			{
				Name: "after",
				Load: scenario.Load{Workers: 4, Ops: ops, WriteFrac: 0.4},
				SLO:  &scenario.SLO{RequireHealthy: true},
			},
		},
	}
	rep := scenariotest.Run(t, sc, tgt)
	outage := rep.Phases[1]
	for i, ev := range outage.Events {
		if ev.Err != "" {
			t.Fatalf("outage event %d (%s) failed: %s", i, ev.Action, ev.Err)
		}
	}
	if rep.Phases[2].Errors != 0 {
		t.Fatalf("post-restart phase saw %d errors", rep.Phases[2].Errors)
	}
}
