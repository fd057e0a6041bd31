//go:build !race

// The allocs regression gate (CI): plan compilation into a reused Plan
// promises zero allocations per request in steady state; a regression
// fails `go test`. Excluded under -race, whose instrumentation changes
// allocation behavior.

package plan_test

import (
	"testing"

	"repro/pdl"
	"repro/pdl/plan"
)

func TestPlannerHotPathAllocs(t *testing.T) {
	res, err := pdl.Build(17, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, 4*res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	var p plan.Plan
	down := []int{3}
	i := 0
	assertZero := func(name string, f func()) {
		t.Helper()
		for w := 0; w < 8; w++ {
			f()
		}
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, n)
		}
	}
	assertZero("Read healthy", func() {
		if err := pln.ReadM(i%m.DataUnits(), nil, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("Read degraded", func() {
		if err := pln.ReadM(i%m.DataUnits(), down, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("Write healthy", func() {
		if err := pln.WriteM(i%m.DataUnits(), nil, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("Write degraded", func() {
		if err := pln.WriteM(i%m.DataUnits(), down, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("RebuildStripe", func() {
		if _, err := pln.RebuildStripe(i%m.Stripes(), 3, down, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("FullStripeWrite", func() {
		if err := pln.FullStripeWriteM(i%m.DataUnits(), nil, &p); err != nil {
			t.Fatal(err)
		}
		i++
	})
}
