package sim

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/design"
)

func raid5Array(t *testing.T, v, rows int) *Array {
	t.Helper()
	l, err := baseline.RAID5(v, rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func declusteredArray(t *testing.T, v, k int) *Array {
	t.Helper()
	rl, err := core.NewRingLayout(v, k)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(rl.Layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestHealthyReadOneUnit(t *testing.T) {
	a := raid5Array(t, 5, 10)
	done, err := a.ReadLogical(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Errorf("read latency %d, want 1 service time", done)
	}
	var reads int64
	for _, s := range a.Stats {
		reads += s.Reads
	}
	if reads != 1 {
		t.Errorf("%d reads issued, want 1", reads)
	}
}

func TestSmallWriteFourOps(t *testing.T) {
	a := raid5Array(t, 5, 10)
	done, err := a.WriteLogical(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Read old data + parity in parallel (1 tick), then write both (1 tick).
	if done != 2 {
		t.Errorf("small write latency %d, want 2", done)
	}
	var reads, writes int64
	for _, s := range a.Stats {
		reads += s.Reads
		writes += s.Writes
	}
	if reads != 2 || writes != 2 {
		t.Errorf("reads=%d writes=%d, want 2 and 2", reads, writes)
	}
}

func TestDegradedReadFansOut(t *testing.T) {
	a := raid5Array(t, 5, 10)
	// Find a logical unit on disk 2.
	var logical = -1
	for i := 0; i < a.Mapping.DataUnits(); i++ {
		u, err := a.Mapping.Map(i, a.L.Size)
		if err != nil {
			t.Fatal(err)
		}
		if u.Disk == 2 {
			logical = i
			break
		}
	}
	if logical < 0 {
		t.Fatal("no data unit on disk 2")
	}
	if err := a.Fail(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadLogical(logical, 0); err != nil {
		t.Fatal(err)
	}
	var reads int64
	for d, s := range a.Stats {
		if d == 2 && s.Reads > 0 {
			t.Error("failed disk was read")
		}
		reads += s.Reads
	}
	if reads != 4 { // k-1 survivors
		t.Errorf("degraded read issued %d reads, want 4", reads)
	}
}

func TestRebuildOfflineRAID5ReadsEverything(t *testing.T) {
	a := raid5Array(t, 5, 20)
	res, err := a.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < 5; d++ {
		if res.PerDiskReads[d] != 20 {
			t.Errorf("disk %d read %d units, want all 20", d, res.PerDiskReads[d])
		}
	}
	if res.SurvivorFraction != 1.0 {
		t.Errorf("survivor fraction %v, want 1.0", res.SurvivorFraction)
	}
}

func TestRebuildOfflineDeclusteredFraction(t *testing.T) {
	// Ring layout (v=9, k=3): rebuild reads exactly (k-1)/(v-1) = 1/4 of
	// each survivor.
	a := declusteredArray(t, 9, 3)
	res, err := a.RebuildOffline(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3-1) / float64(9-1)
	if res.SurvivorFraction != want {
		t.Errorf("survivor fraction %v, want %v", res.SurvivorFraction, want)
	}
	for d := 0; d < 9; d++ {
		if d == 4 {
			continue
		}
		if got := float64(res.PerDiskReads[d]) / float64(a.L.Size); got != want {
			t.Errorf("disk %d fraction %v, want %v", d, got, want)
		}
	}
}

func TestRebuildDeclusteredBeatsRAID5(t *testing.T) {
	// The headline comparison: same size arrays, declustered rebuild
	// makespan is ~ (k-1)/(v-1) of RAID5's.
	v := 9
	rl, err := core.NewRingLayout(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := baseline.RAID5(v, rl.Size)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := New(rl.Layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := New(r5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := ad.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := ar.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Makespan*3 > rres.Makespan {
		t.Errorf("declustered makespan %d vs RAID5 %d: expected ~4x speedup", dres.Makespan, rres.Makespan)
	}
}

func TestServeWorkloadHealthy(t *testing.T) {
	a := declusteredArray(t, 8, 4)
	gen := NewUniform(a.Mapping.DataUnits(), 0.5, 11)
	res, err := a.ServeWorkload(gen, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 500 || res.AvgLatency() < 1 {
		t.Errorf("ops=%d avg=%v", res.Ops, res.AvgLatency())
	}
	if res.MaxLatency < 1 || res.Completion <= 0 {
		t.Errorf("max=%d completion=%d", res.MaxLatency, res.Completion)
	}
}

func TestDegradedModeCostsMoreIO(t *testing.T) {
	healthy := declusteredArray(t, 8, 4)
	gen1 := NewUniform(healthy.Mapping.DataUnits(), 0, 13)
	hres, err := healthy.ServeWorkload(gen1, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	degraded := declusteredArray(t, 8, 4)
	if err := degraded.Fail(3); err != nil {
		t.Fatal(err)
	}
	gen2 := NewUniform(degraded.Mapping.DataUnits(), 0, 13)
	dres, err := degraded.ServeWorkload(gen2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a *Array) int64 {
		var n int64
		for _, s := range a.Stats {
			n += s.Reads
		}
		return n
	}
	// Reads on the failed disk fan out to k-1 survivors: strictly more I/O.
	if sum(degraded) <= sum(healthy) {
		t.Errorf("degraded issued %d reads, healthy %d: expected amplification", sum(degraded), sum(healthy))
	}
	if dres.AvgLatency() < hres.AvgLatency() {
		t.Errorf("degraded avg %v below healthy %v", dres.AvgLatency(), hres.AvgLatency())
	}
}

func TestDegradedModeSlowerUnderSaturation(t *testing.T) {
	// At full utilization the extra degraded I/O must show up as queueing
	// delay: service 8 ticks, one op per tick over 8 disks.
	mk := func(fail int) float64 {
		rl, err := core.NewRingLayout(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(rl.Layout, Config{ServiceTime: 8})
		if err != nil {
			t.Fatal(err)
		}
		if fail >= 0 {
			if err := a.Fail(fail); err != nil {
				t.Fatal(err)
			}
		}
		gen := NewUniform(a.Mapping.DataUnits(), 0, 13)
		res, err := a.ServeWorkload(gen, 3000, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency()
	}
	healthy := mk(-1)
	degraded := mk(3)
	if degraded <= healthy {
		t.Errorf("degraded avg %v not above healthy %v under saturation", degraded, healthy)
	}
}

func TestRebuildOnline(t *testing.T) {
	a := declusteredArray(t, 9, 3)
	gen := NewUniform(a.Mapping.DataUnits(), 0.3, 17)
	cres, rres, err := a.RebuildOnline(gen, 300, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rres.MaxSurvivorReads == 0 {
		t.Error("no rebuild reads issued")
	}
	want := float64(2) / float64(8)
	if rres.SurvivorFraction != want {
		t.Errorf("survivor fraction %v, want %v", rres.SurvivorFraction, want)
	}
	if cres.Ops != 300 {
		t.Errorf("client ops %d", cres.Ops)
	}
	if rres.PerDiskReads[2] != 0 {
		t.Error("rebuild read the failed disk")
	}
}

func TestParityContentionBalancedVsSkewed(t *testing.T) {
	// A layout with all parity on one disk must show higher max write
	// contention than a balanced one.
	d := design.FromDifferenceSet(7, []int{1, 2, 4})
	balanced, err := core.FromDesignSingle(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.BalanceParity(balanced); err != nil {
		t.Fatal(err)
	}
	skewed, err := core.FromDesignSingle(d)
	if err != nil {
		t.Fatal(err)
	}
	// Put every parity unit on the unit whose disk is smallest in stripe:
	// concentrates parity heavily.
	for i := range skewed.Stripes {
		best := 0
		for j, u := range skewed.Stripes[i].Units {
			if u.Disk < skewed.Stripes[i].Units[best].Disk {
				best = j
			}
		}
		skewed.Stripes[i].Parity = best
	}
	ab, err := New(balanced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	as, err := New(skewed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := 3000
	maxB, meanB, err := ab.ParityContention(NewUniform(ab.Mapping.DataUnits(), 1, 29), n)
	if err != nil {
		t.Fatal(err)
	}
	maxS, meanS, err := as.ParityContention(NewUniform(as.Mapping.DataUnits(), 1, 29), n)
	if err != nil {
		t.Fatal(err)
	}
	if maxS <= maxB {
		t.Errorf("skewed max writes %d not above balanced %d (means %v vs %v)", maxS, maxB, meanS, meanB)
	}
}

func TestFailValidation(t *testing.T) {
	a := raid5Array(t, 4, 4)
	if err := a.Fail(9); err == nil {
		t.Error("bad disk accepted")
	}
	if _, err := a.RebuildOffline(-1, 0); err == nil {
		t.Error("bad rebuild disk accepted")
	}
}

func TestResetClearsState(t *testing.T) {
	a := raid5Array(t, 4, 4)
	if _, err := a.WriteLogical(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(1); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.Failed != -1 {
		t.Error("Failed not reset")
	}
	for d, s := range a.Stats {
		if s.Reads != 0 || s.Writes != 0 || s.BusyTime != 0 {
			t.Errorf("disk %d stats not reset: %+v", d, s)
		}
	}
}

func TestNewRequiresParity(t *testing.T) {
	d := design.FromDifferenceSet(7, []int{1, 2, 4})
	l, err := core.FromDesignSingle(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(l, Config{}); err == nil {
		t.Error("layout without parity accepted")
	}
}

func TestServiceTimeScales(t *testing.T) {
	l, err := baseline.RAID5(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(l, Config{ServiceTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	done, err := a.ReadLogical(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Errorf("latency %d, want 5", done)
	}
}
