//go:build !race

// The allocs regression gate (CI): the Mapper hot paths promise zero
// allocations per operation in steady state; a regression fails `go
// test`. Excluded under -race, whose instrumentation changes allocation
// behavior.

package pdl_test

import (
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
)

func TestMapperHotPathAllocs(t *testing.T) {
	res, err := pdl.Build(17, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, 4*res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]layout.Unit, 0, 64)
	i := 0
	assertZero := func(name string, f func()) {
		t.Helper()
		// Warm any lazily-grown scratch first.
		for w := 0; w < 8; w++ {
			f()
		}
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, n)
		}
	}
	assertZero("Map", func() {
		if _, err := m.Map(i % m.DataUnits()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("StripeOf", func() {
		if _, _, err := m.StripeOf(i % m.DataUnits()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("AppendStripeUnits", func() {
		var err error
		units, err = m.AppendStripeUnits(units[:0], i%m.Stripes())
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("AppendParityUnits", func() {
		var err error
		units, err = m.AppendParityUnits(units[:0], i%m.Stripes())
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZero("ShardAt", func() {
		u := layout.Unit{Disk: i % m.Disks(), Offset: i % m.DiskUnits()}
		if m.ShardAt(u) < 0 {
			t.Fatalf("ShardAt(%v) < 0", u)
		}
		i++
	})
}
