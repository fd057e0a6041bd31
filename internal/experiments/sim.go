package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/pdl/sim"
)

// S1Reconstruction runs the motivating experiment: offline rebuild of one
// disk under RAID5 vs parity-declustered layouts of the same size,
// reporting survivor read fractions and makespan speedup.
func S1Reconstruction(quick bool) (*Table, error) {
	vs := []int{9, 17}
	if !quick {
		vs = append(vs, 25, 49)
	}
	t := &Table{ID: "S1", Title: "offline reconstruction: RAID5 vs declustered (survivor read fraction, makespan)",
		Header: []string{"v", "layout", "k", "size", "survivor fraction", "paper (k-1)/(v-1)", "makespan", "speedup vs RAID5"}}
	for _, v := range vs {
		for _, k := range []int{4, 8} {
			if k >= v {
				continue
			}
			rl, err := core.NewRingLayout(v, k)
			if err != nil {
				return nil, err
			}
			r5, err := baseline.RAID5(v, rl.Size)
			if err != nil {
				return nil, err
			}
			ad, err := sim.New(rl.Layout, sim.Config{})
			if err != nil {
				return nil, err
			}
			ar, err := sim.New(r5, sim.Config{})
			if err != nil {
				return nil, err
			}
			dres, err := ad.RebuildOffline(0, 0)
			if err != nil {
				return nil, err
			}
			rres, err := ar.RebuildOffline(0, 0)
			if err != nil {
				return nil, err
			}
			want := float64(k-1) / float64(v-1)
			if dres.SurvivorFraction != want {
				return nil, fmt.Errorf("S1(v=%d,k=%d): fraction %v != %v", v, k, dres.SurvivorFraction, want)
			}
			speedup := float64(rres.Makespan) / float64(dres.Makespan)
			t.AddRow(v, "declustered", k, rl.Size, dres.SurvivorFraction, want, dres.Makespan, speedup)
			t.AddRow(v, "RAID5", v, r5.Size, rres.SurvivorFraction, 1.0, rres.Makespan, 1.0)
		}
	}
	t.Notes = append(t.Notes, "declustered rebuild reads exactly (k-1)/(v-1) of each survivor; RAID5 reads 100%")
	return t, nil
}

// S2ApproxVsExact runs the paper's planned Section 5 experiment: exact
// BIBD layouts vs approximately balanced layouts (Theorem 9 removal and
// stairway) under online rebuild with client load, plus parity-update
// contention under pure writes.
func S2ApproxVsExact(quick bool) (*Table, error) {
	nOps := 2000
	if !quick {
		nOps = 10000
	}
	t := &Table{ID: "S2", Title: "approximate vs exact layouts: online rebuild + write contention",
		Header: []string{"layout", "v", "k", "size", "overhead max", "client avg lat", "rebuild makespan", "max parity writes / mean"}}

	type entry struct {
		name string
		a    *sim.Array
	}
	var entries []entry

	// Exact: ring layout for v=16, k=4.
	exact, err := core.NewRingLayout(16, 4)
	if err != nil {
		return nil, err
	}
	ea, err := sim.New(exact.Layout, sim.Config{})
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"exact ring v=16", ea})

	// Approximate by removal: v=17 ring layout minus one disk -> 16 disks.
	base17, err := core.NewRingLayout(17, 4)
	if err != nil {
		return nil, err
	}
	removed, err := core.RemoveDisk(base17, 0)
	if err != nil {
		return nil, err
	}
	ra, err := sim.New(removed, sim.Config{})
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"thm8 removal v=16", ra})

	// Approximate by stairway: q=13 -> v=16 (k=4).
	base13, err := core.NewRingLayout(13, 4)
	if err != nil {
		return nil, err
	}
	stair, _, err := core.Stairway(base13, 16)
	if err != nil {
		return nil, err
	}
	sa, err := sim.New(stair, sim.Config{})
	if err != nil {
		return nil, err
	}
	entries = append(entries, entry{"stairway q=13 v=16", sa})

	for _, e := range entries {
		l := e.a.L
		gen := sim.NewUniform(e.a.Mapping.DataUnits(), 0.3, 101)
		cres, rres, err := e.a.RebuildOnline(gen, nOps, 2, 1)
		if err != nil {
			return nil, err
		}
		// Fresh array for the contention measurement.
		a2, err := sim.New(l, sim.Config{})
		if err != nil {
			return nil, err
		}
		maxW, meanW, err := a2.ParityContention(sim.NewUniform(a2.Mapping.DataUnits(), 1, 55), nOps)
		if err != nil {
			return nil, err
		}
		_, omax := l.ParityOverheadRange()
		t.AddRow(e.name, l.V, "4", l.Size, omax.String(),
			cres.AvgLatency(), rres.Makespan,
			fmt.Sprintf("%d / %.1f", maxW, meanW))
	}
	t.Notes = append(t.Notes,
		"approximate layouts track the exact layout closely; their small parity imbalance shows up as slightly higher max parity-write contention",
		"this is the experiment the paper lists as its next step (Section 5), run on our simulator substrate")
	return t, nil
}
