package sim

import (
	"testing"

	"repro/internal/core"
)

func copiesArray(t *testing.T, copies int) *Array {
	t.Helper()
	rl, err := core.NewRingLayout(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(rl.Layout, Config{Copies: copies})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCopiesCapacity(t *testing.T) {
	a := copiesArray(t, 4)
	if a.DiskUnits() != 4*a.L.Size {
		t.Errorf("DiskUnits = %d", a.DiskUnits())
	}
	if a.DataUnits() != 4*a.Mapping.DataUnits() {
		t.Errorf("DataUnits = %d", a.DataUnits())
	}
}

func TestCopiesAddressesReachable(t *testing.T) {
	a := copiesArray(t, 3)
	// Highest logical address in the last copy must be servable.
	last := a.DataUnits() - 1
	if _, err := a.ReadLogical(last, 0); err != nil {
		t.Fatalf("read of last logical unit: %v", err)
	}
	if _, err := a.WriteLogical(last, 0); err != nil {
		t.Fatalf("write of last logical unit: %v", err)
	}
	if _, err := a.ReadLogical(a.DataUnits(), 0); err == nil {
		t.Error("out-of-capacity address accepted")
	}
}

func TestCopiesRebuildScales(t *testing.T) {
	one := copiesArray(t, 1)
	four := copiesArray(t, 4)
	r1, err := one.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := four.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the units to read, same per-disk fraction.
	if r4.MaxSurvivorReads != 4*r1.MaxSurvivorReads {
		t.Errorf("reads %d vs 4*%d", r4.MaxSurvivorReads, r1.MaxSurvivorReads)
	}
	if r4.SurvivorFraction != r1.SurvivorFraction {
		t.Errorf("fractions differ: %v vs %v", r4.SurvivorFraction, r1.SurvivorFraction)
	}
}

func TestCopiesDegradedWriteParityInSameCopy(t *testing.T) {
	a := copiesArray(t, 2)
	// Write in copy 1 must touch offsets >= Size only.
	logical := a.Mapping.DataUnits() // first unit of copy 1
	if _, err := a.WriteLogical(logical, 0); err != nil {
		t.Fatal(err)
	}
	// All activity so far must be in copy 1's offset range; verify via the
	// seek heads (heads move only on seek model) — instead check stats:
	// exactly 2 reads and 2 writes were issued.
	var reads, writes int64
	for _, s := range a.Stats {
		reads += s.Reads
		writes += s.Writes
	}
	if reads != 2 || writes != 2 {
		t.Errorf("reads=%d writes=%d", reads, writes)
	}
}

func TestCopiesOnlineRebuild(t *testing.T) {
	a := copiesArray(t, 2)
	gen := NewUniform(a.DataUnits(), 0.2, 5)
	_, rres, err := a.RebuildOnline(gen, 200, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2) / float64(8)
	if rres.SurvivorFraction != want {
		t.Errorf("survivor fraction %v, want %v", rres.SurvivorFraction, want)
	}
}
