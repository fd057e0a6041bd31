package repro

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/sim"
)

// One benchmark per experiment id `pdlexp -only <id>` prints (F1..F7,
// T1..T7, S1, S2, E1..E5; see internal/experiments). Each regenerates
// the corresponding figure/table; `go test -bench .` therefore re-runs
// the paper's whole evaluation.

func benchExperiment(b *testing.B, run func(bool) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ParityStripe(b *testing.B)  { benchExperiment(b, experiments.F1ParityStripe) }
func BenchmarkFig2Declustered(b *testing.B)   { benchExperiment(b, experiments.F2DeclusteredLayout) }
func BenchmarkFig3BIBDLayout(b *testing.B)    { benchExperiment(b, experiments.F3BIBDLayout) }
func BenchmarkFig4Stairway(b *testing.B)      { benchExperiment(b, experiments.F4StairwayPlusOne) }
func BenchmarkFig5StairwayDiv(b *testing.B)   { benchExperiment(b, experiments.F5StairwayDivides) }
func BenchmarkFig6StairwayMixed(b *testing.B) { benchExperiment(b, experiments.F6StairwayMixed) }
func BenchmarkFig7ParityFlow(b *testing.B)    { benchExperiment(b, experiments.F7ParityAssignmentGraph) }
func BenchmarkT1RingDesigns(b *testing.B)     { benchExperiment(b, experiments.T1RingDesignParams) }
func BenchmarkT2Reductions(b *testing.B)      { benchExperiment(b, experiments.T2ReducedDesigns) }
func BenchmarkT3Removal(b *testing.B)         { benchExperiment(b, experiments.T3DiskRemoval) }
func BenchmarkT4Stairway(b *testing.B)        { benchExperiment(b, experiments.T4StairwaySweep) }
func BenchmarkT5Coverage(b *testing.B)        { benchExperiment(b, experiments.T5Coverage) }
func BenchmarkT6FlowBalance(b *testing.B)     { benchExperiment(b, experiments.T6FlowBalance) }
func BenchmarkT7Feasibility(b *testing.B)     { benchExperiment(b, experiments.T7Feasibility) }
func BenchmarkS1Reconstruction(b *testing.B)  { benchExperiment(b, experiments.S1Reconstruction) }
func BenchmarkS2ApproxVsExact(b *testing.B)   { benchExperiment(b, experiments.S2ApproxVsExact) }
func BenchmarkE1Extendibility(b *testing.B)   { benchExperiment(b, experiments.E1Extendibility) }
func BenchmarkE2RandomVsBIBD(b *testing.B)    { benchExperiment(b, experiments.E2RandomVsBIBD) }
func BenchmarkE3Conditions56(b *testing.B)    { benchExperiment(b, experiments.E3Conditions56) }
func BenchmarkE4Sparing(b *testing.B)         { benchExperiment(b, experiments.E4DistributedSparing) }
func BenchmarkE5Reliability(b *testing.B)     { benchExperiment(b, experiments.E5Reliability) }

// Ablation benches for the design choices behind those experiments
// (internal/experiments).

// BenchmarkAblationFieldMulTables measures table-driven GF multiplication.
func BenchmarkAblationFieldMulTables(b *testing.B) {
	f := algebra.NewField(256)
	b.ResetTimer()
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 3)
		if acc == 0 {
			acc = 1
		}
	}
	_ = acc
}

// BenchmarkAblationFieldMulPolynomial measures the explicit polynomial
// multiplication the tables replace.
func BenchmarkAblationFieldMulPolynomial(b *testing.B) {
	f := algebra.NewField(256)
	b.ResetTimer()
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.MulNoTable(acc, 3)
		if acc == 0 {
			acc = 1
		}
	}
	_ = acc
}

// parityAssignmentNetwork builds the Figure 7 network for a (v,k) design.
func parityAssignmentNetwork(b *testing.B, v, k int, algo flow.Algorithm) {
	b.Helper()
	rd, err := design.NewRingDesignForVK(v, k)
	if err != nil {
		b.Fatal(err)
	}
	l, err := core.FromDesignSingle(&rd.Design)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := flow.NewNetwork()
		source := n.AddNode()
		sink := n.AddNode()
		stripes := n.AddNodes(len(l.Stripes))
		disks := n.AddNodes(l.V)
		for si := range l.Stripes {
			n.AddEdge(source, stripes+si, 0, 1)
			for _, u := range l.Stripes[si].Units {
				n.AddEdge(stripes+si, disks+u.Disk, 0, 1)
			}
		}
		for d := 0; d < l.V; d++ {
			n.AddEdge(disks+d, sink, 0, len(l.Stripes)/l.V+1)
		}
		if got := n.MaxFlow(source, sink, algo); got != len(l.Stripes) {
			b.Fatalf("flow %d, want %d", got, len(l.Stripes))
		}
	}
}

// BenchmarkAblationMaxflowDinic and ...EdmondsKarp compare the two solvers
// on the parity assignment graph of a (25,5) ring design (600 stripes).
func BenchmarkAblationMaxflowDinic(b *testing.B) {
	parityAssignmentNetwork(b, 25, 5, flow.Dinic)
}

func BenchmarkAblationMaxflowEdmondsKarp(b *testing.B) {
	parityAssignmentNetwork(b, 25, 5, flow.EdmondsKarp)
}

// BenchmarkAblationReduceRedundancy measures the generic tuple-multiset
// reduction on a Theorem 4 construction.
func BenchmarkAblationReduceRedundancy(b *testing.B) {
	f := algebra.NewField(64)
	gens := algebra.FindGenerators(f, 8)
	rd := design.NewRingDesign(f, gens)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, factor := design.Reduce(&rd.Design); factor < 1 {
			b.Fatal("bad factor")
		}
	}
}

// Construction benches: the operations a storage controller would run at
// configuration time.

func BenchmarkRingLayoutConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewRingLayout(64, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStairwayConstruction(b *testing.B) {
	rl, err := core.NewRingLayout(61, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Stairway(rl, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalanceParity(b *testing.B) {
	rd, err := design.NewRingDesignForVK(32, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := core.FromDesignSingle(&rd.Design)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := core.BalanceParity(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeekModel vs ...ConstantModel: the disk service-time
// ablation (seek-aware adds head tracking and distance costs).
func benchServeWorkload(b *testing.B, cfg sim.Config) {
	b.Helper()
	rl, err := core.NewRingLayout(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := sim.New(rl.Layout, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gen := sim.NewUniform(a.Mapping.DataUnits(), 0.3, uint64(i+1))
		b.StartTimer()
		if _, err := a.ServeWorkload(gen, 2000, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConstantModel(b *testing.B) {
	benchServeWorkload(b, sim.Config{ServiceTime: 1})
}

func BenchmarkAblationSeekModel(b *testing.B) {
	benchServeWorkload(b, sim.Config{ServiceTime: 1, Seek: &sim.SeekParams{Base: 2, PerUnit: 0.1}})
}

// BenchmarkMappingLookup measures the Condition 4 address translation.
func BenchmarkMappingLookup(b *testing.B) {
	rl, err := core.NewRingLayout(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := layout.NewMapping(rl.Layout)
	if err != nil {
		b.Fatal(err)
	}
	diskUnits := rl.Size * 16
	n := m.DataUnits() * 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(i%n, diskUnits); err != nil {
			b.Fatal(err)
		}
	}
}

// Facade-level Mapper benchmarks: the construction and lookup costs a
// serving layer sits on. Run with `go test -bench Mapper`.

// BenchmarkMapperBuild measures facade construction: pdl.Build plus the
// Mapper table precomputation for a 64-disk array.
func BenchmarkMapperBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := pdl.Build(64, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.NewMapper(res.Layout.Size); err != nil {
			b.Fatal(err)
		}
	}
}

func mapperForBench(b *testing.B, copies int) *pdl.Mapper {
	b.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := res.NewMapper(res.Layout.Size * copies)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMapperLookup measures the O(1) logical -> physical hot path.
func BenchmarkMapperLookup(b *testing.B) {
	m := mapperForBench(b, 16)
	n := m.DataUnits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(i % n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperReverseLookup measures physical -> logical translation.
func BenchmarkMapperReverseLookup(b *testing.B) {
	m := mapperForBench(b, 16)
	n := m.DataUnits()
	units := make([]layout.Unit, n)
	for i := range units {
		u, err := m.Map(i)
		if err != nil {
			b.Fatal(err)
		}
		units[i] = u
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Logical(units[i%n]); !ok {
			b.Fatal("reverse lookup failed")
		}
	}
}
