// Package reliability quantifies why reconstruction time matters — the
// paper's motivating argument (via Muntz & Lui [11], Patterson et al.
// [12]): with single parity, data is lost when a second disk fails while
// the first is still rebuilding, so the mean time to data loss (MTTDL)
// is inversely proportional to the rebuild window. Parity declustering
// shrinks that window by (k-1)/(v-1).
//
// The package provides the classic analytic MTTDL model and a Monte
// Carlo failure-process simulator (deterministic xorshift RNG) that
// cross-validates it.
package reliability

import (
	"fmt"
	"math"

	"repro/pdl/sim"
)

// RebuildHours returns the time to rebuild one failed disk when each of
// the v-1 survivors must deliver a (k-1)/(v-1) fraction of diskUnits
// units in parallel at unitsPerHour per disk (the simulator's
// analytic counterpart). k = v reproduces RAID5 (read everything).
func RebuildHours(diskUnits, v, k int, unitsPerHour float64) float64 {
	if v < 2 || k < 2 || k > v || diskUnits < 1 || unitsPerHour <= 0 {
		panic(fmt.Sprintf("reliability: RebuildHours(%d,%d,%d,%v): invalid parameters", diskUnits, v, k, unitsPerHour))
	}
	fraction := float64(k-1) / float64(v-1)
	return float64(diskUnits) * fraction / unitsPerHour
}

// AnalyticMTTDL returns the mean time to data loss in hours for a
// v-disk single-parity array with per-disk MTTF mttfHours and rebuild
// window rebuildHours: the standard Markov approximation
//
//	MTTDL = MTTF^2 / (v (v-1) R)
//
// valid when R << MTTF.
func AnalyticMTTDL(v int, mttfHours, rebuildHours float64) float64 {
	if v < 2 || mttfHours <= 0 || rebuildHours <= 0 {
		panic(fmt.Sprintf("reliability: AnalyticMTTDL(%d,%v,%v): invalid parameters", v, mttfHours, rebuildHours))
	}
	return mttfHours * mttfHours / (float64(v) * float64(v-1) * rebuildHours)
}

// SimulateMTTDL estimates MTTDL by Monte Carlo over the renewal process:
// wait Exp(v/MTTF) for a first failure, then lose data if any of the
// remaining v-1 disks fails within the rebuild window (probability
// 1 - exp(-(v-1) R / MTTF)); otherwise the array returns to full
// redundancy. Returns the mean over trials.
func SimulateMTTDL(v int, mttfHours, rebuildHours float64, trials int, seed uint64) float64 {
	if trials < 1 {
		panic("reliability: SimulateMTTDL: trials must be >= 1")
	}
	if v < 2 || mttfHours <= 0 || rebuildHours <= 0 {
		panic("reliability: SimulateMTTDL: invalid parameters")
	}
	rng := sim.NewRNG(seed)
	expVariate := func(mean float64) float64 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return -mean * math.Log(u)
	}
	lambda := 1 / mttfHours
	var total float64
	for trial := 0; trial < trials; trial++ {
		t := 0.0
		for {
			// First failure among v disks.
			t += expVariate(1 / (float64(v) * lambda))
			// Time to next failure among survivors.
			second := expVariate(1 / (float64(v-1) * lambda))
			if second < rebuildHours {
				t += second
				break // double failure: data loss
			}
			t += rebuildHours // rebuilt; array whole again
		}
		total += t
	}
	return total / float64(trials)
}

// Comparison summarizes the declustering reliability/capacity trade-off
// for one stripe size.
type Comparison struct {
	K               int
	ParityOverhead  float64 // 1/k of the array stores parity
	RebuildHours    float64
	AnalyticMTTDL   float64
	RelativeToRAID5 float64 // MTTDL improvement factor vs k = v
}

// Compare evaluates stripe sizes for a v-disk array.
func Compare(v, diskUnits int, mttfHours, unitsPerHour float64, ks []int) []Comparison {
	raidR := RebuildHours(diskUnits, v, v, unitsPerHour)
	raidMTTDL := AnalyticMTTDL(v, mttfHours, raidR)
	out := make([]Comparison, 0, len(ks))
	for _, k := range ks {
		r := RebuildHours(diskUnits, v, k, unitsPerHour)
		m := AnalyticMTTDL(v, mttfHours, r)
		out = append(out, Comparison{
			K:               k,
			ParityOverhead:  1 / float64(k),
			RebuildHours:    r,
			AnalyticMTTDL:   m,
			RelativeToRAID5: m / raidMTTDL,
		})
	}
	return out
}
