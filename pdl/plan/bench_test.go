package plan_test

import (
	"testing"

	"repro/pdl"
	"repro/pdl/plan"
)

// benchPlanner builds the benchmark geometry: a (17, 4) ring layout
// tiled 4 copies per disk.
func benchPlanner(b *testing.B) (*plan.Planner, int) {
	b.Helper()
	res, err := pdl.Build(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, 4*res.Layout.Size)
	if err != nil {
		b.Fatal(err)
	}
	return plan.NewPlanner(m), m.DataUnits()
}

// BenchmarkPlanRead measures healthy read compilation into a reused
// Plan, 0 allocs/op.
func BenchmarkPlanRead(b *testing.B) {
	pln, n := benchPlanner(b)
	var p plan.Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pln.ReadM(i%n, nil, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanDegradedRead measures degraded-read compilation (survivor
// XOR set) into a reused Plan, 0 allocs/op.
func BenchmarkPlanDegradedRead(b *testing.B) {
	pln, n := benchPlanner(b)
	var p plan.Plan
	down := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pln.ReadM(i%n, down, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSmallWrite measures read-modify-write compilation into a
// reused Plan, 0 allocs/op.
func BenchmarkPlanSmallWrite(b *testing.B) {
	pln, n := benchPlanner(b)
	var p plan.Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pln.WriteM(i%n, nil, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanDegradedSmallWrite measures the degraded write variants
// (reconstruct-write and data-only-write mixed, depending on the
// address), 0 allocs/op.
func BenchmarkPlanDegradedSmallWrite(b *testing.B) {
	pln, n := benchPlanner(b)
	var p plan.Plan
	down := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pln.WriteM(i%n, down, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFullStripeWrite measures Condition 5 large-write
// compilation into a reused Plan, 0 allocs/op.
func BenchmarkPlanFullStripeWrite(b *testing.B) {
	pln, n := benchPlanner(b)
	var p plan.Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pln.FullStripeWriteM(i%n, nil, &p); err != nil {
			b.Fatal(err)
		}
	}
}
