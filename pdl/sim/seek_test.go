package sim

import (
	"testing"

	"repro/internal/core"
)

func seekArray(t *testing.T, seek *SeekParams) *Array {
	t.Helper()
	rl, err := core.NewRingLayout(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(rl.Layout, Config{ServiceTime: 1, Seek: seek})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSeekModelSequentialCheaperThanRandom(t *testing.T) {
	seek := &SeekParams{Base: 2, PerUnit: 1}
	seq := seekArray(t, seek)
	n := seq.Mapping.DataUnits()
	sres, err := seq.ServeWorkload(NewSequential(n, Read), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	rnd := seekArray(t, seek)
	rres, err := rnd.ServeWorkload(NewUniform(n, 0, 3), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var seqBusy, rndBusy int64
	for d := range seq.Stats {
		seqBusy += seq.Stats[d].BusyTime
		rndBusy += rnd.Stats[d].BusyTime
	}
	if seqBusy >= rndBusy {
		t.Errorf("sequential busy %d not below random busy %d under seek model", seqBusy, rndBusy)
	}
	_ = sres
	_ = rres
}

func TestConstantModelIgnoresOffsets(t *testing.T) {
	seq := seekArray(t, nil)
	n := seq.Mapping.DataUnits()
	if _, err := seq.ServeWorkload(NewSequential(n, Read), 300, 1); err != nil {
		t.Fatal(err)
	}
	rnd := seekArray(t, nil)
	if _, err := rnd.ServeWorkload(NewUniform(n, 0, 3), 300, 1); err != nil {
		t.Fatal(err)
	}
	var seqBusy, rndBusy int64
	for d := range seq.Stats {
		seqBusy += seq.Stats[d].BusyTime
		rndBusy += rnd.Stats[d].BusyTime
	}
	if seqBusy != rndBusy {
		t.Errorf("constant model: busy differs (%d vs %d) for equal op counts", seqBusy, rndBusy)
	}
}

func TestSeekModelHeadTracking(t *testing.T) {
	a := seekArray(t, &SeekParams{Base: 0, PerUnit: 1})
	// Two reads at the same offset: second has zero seek distance.
	u, err := a.Mapping.Map(0, a.L.Size)
	if err != nil {
		t.Fatal(err)
	}
	f1 := a.Issue(u.Disk, u.Offset, 0, false)
	f2 := a.Issue(u.Disk, u.Offset, f1, false)
	if f2-f1 != 1 { // service only, no seek
		t.Errorf("repeat access cost %d, want 1", f2-f1)
	}
	// A far access pays distance.
	f3 := a.Issue(u.Disk, u.Offset+10, f2, false)
	if f3-f2 != 11 {
		t.Errorf("far access cost %d, want 11", f3-f2)
	}
}

func TestSeekModelRebuildStillCorrectFractions(t *testing.T) {
	a := seekArray(t, &SeekParams{Base: 1, PerUnit: 0.5})
	res, err := a.RebuildOffline(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2) / float64(8)
	if res.SurvivorFraction != want {
		t.Errorf("fraction %v, want %v (seek model must not change read counts)", res.SurvivorFraction, want)
	}
}
