package cluster_test

import (
	"testing"
	"time"

	"repro/pdl/cluster"
	"repro/pdl/scenario"
	"repro/pdl/scenario/scenariotest"
	"repro/pdl/serve"
)

// TestClusterSoak is the cluster's mid-traffic failure drill, run under
// -race in CI, scripted through the scenario engine: workers hammer
// 96-byte spans through one shared client — deliberately unaligned with
// the 64 B shard-unit, so ops cross shard boundaries constantly — while
// shard 1 loses a disk and
// rebuilds online, both over the admin wire. The other shards are
// separate failure domains, so no operation may error in any phase
// (the zero-value SLO forbids errors); verify mode checks every read
// against the model and sweeps at the end, and the harness audits
// every shard's parity after the run. PDL_SCENARIO_OPS lengthens each
// phase for the nightly soak.
func TestClusterSoak(t *testing.T) {
	tc := scenariotest.StartCluster(t, scenariotest.Array{}, 64, []int64{24, 36, 48},
		cluster.ByCapacity, serve.Config{QueueDepth: 32, FlushDelay: 100 * time.Microsecond})
	tgt := tc.NewCluster(t, 96, cluster.Options{})
	ops := scenariotest.Ops(1000)
	load := scenario.Load{Workers: 6, Ops: ops, WriteFrac: 0.5}
	sc := &scenario.Scenario{
		Name:   "cluster-soak",
		Seed:   0x50AC,
		Verify: true,
		Phases: []scenario.Phase{
			{Name: "healthy", Load: load, SLO: &scenario.SLO{}},
			{
				Name:   "degraded",
				Load:   load,
				Events: []scenario.Event{{Action: scenario.ActFail, Shard: 1, Disk: 3, AtOps: ops / 10}},
				SLO:    &scenario.SLO{},
			},
			{
				Name:   "rebuild",
				Load:   load,
				Events: []scenario.Event{{Action: scenario.ActRebuild, Shard: 1, AtOps: ops / 10}},
				SLO:    &scenario.SLO{RequireHealthy: true},
			},
			{Name: "rebuilt", Load: load, SLO: &scenario.SLO{RequireHealthy: true}},
		},
	}
	rep := scenariotest.Run(t, sc, tgt)
	for i := range rep.Phases {
		if rep.Phases[i].Errors != 0 {
			t.Fatalf("phase %q saw %d errors during single-shard degradation",
				rep.Phases[i].Name, rep.Phases[i].Errors)
		}
	}
}

// TestClusterSubUnitWriters runs concurrent workers whose ops are
// smaller than, and unaligned to, the shards' array unit: 48-byte ops
// over 32-byte array units and 64-byte shard-units, so neighbouring ops
// of different workers share array units. Verify mode checks every read
// against the model and sweeps the namespace at the end: a write to
// bytes no other worker touched must never be undone.
func TestClusterSubUnitWriters(t *testing.T) {
	tc := scenariotest.StartCluster(t, scenariotest.Array{UnitSize: 32}, 64, []int64{24, 36, 48},
		cluster.ByCapacity, serve.Config{FlushDelay: -1})
	tgt := tc.NewCluster(t, 48, cluster.Options{})
	sc := &scenario.Scenario{
		Name:   "cluster-sub-unit",
		Seed:   0x5AB,
		Verify: true,
		Phases: []scenario.Phase{{
			Name: "sub-unit",
			Load: scenario.Load{Workers: 6, Ops: scenariotest.Ops(4000), WriteFrac: 0.5},
			SLO:  &scenario.SLO{},
		}},
	}
	scenariotest.Run(t, sc, tgt)
}
