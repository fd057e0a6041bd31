// Quickstart: build a parity-declustered layout for an arbitrary array
// size, inspect the paper's four conditions, translate an address through
// the O(1) Mapper, compile its degraded read with pdl/plan, and rebuild a
// failed disk byte-exactly.
package main

import (
	"fmt"
	"log"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/plan"
)

func main() {
	// 24 disks is not a prime power: the library transparently builds a
	// stairway transformation from a prime-power base.
	res, err := pdl.Build(24, 5)
	if err != nil {
		log.Fatal(err)
	}
	l := res.Layout
	fmt.Printf("construction: %s\n", res.Method)
	fmt.Print(pdl.Report(l))

	// The serving hot path: O(1) logical -> physical translation.
	m, err := res.NewMapper(l.Size)
	if err != nil {
		log.Fatal(err)
	}
	u, err := m.Map(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logical 0 lives at disk %d, offset %d\n", u.Disk, u.Offset)
	var p plan.Plan
	if err := plan.NewPlanner(m).ReadM(0, []int{u.Disk}, &p); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with disk %d down, logical 0 is the XOR of %d surviving units\n", u.Disk, len(p.Steps))

	// Put real data on the array and prove a failed disk reconstructs.
	data, err := layout.NewData(l, 16)
	if err != nil {
		log.Fatal(err)
	}
	n := data.Mapping().DataUnits()
	fmt.Printf("logical data units: %d\n", n)
	for i := 0; i < n; i++ {
		payload := make([]byte, 16)
		for j := range payload {
			payload[j] = byte(i + 7*j)
		}
		if err := data.WriteLogical(i, payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := data.CheckReconstruction(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all 24 disks reconstruct byte-exactly from survivors")

	// The point of declustering: rebuilding reads only a fraction of each
	// surviving disk.
	reads := l.ReconstructionReads(0)
	maxReads := 0
	for d, r := range reads {
		if d != 0 && r > maxReads {
			maxReads = r
		}
	}
	fmt.Printf("rebuild of disk 0 reads at most %d of %d units per survivor (%.1f%%)\n",
		maxReads, l.Size, 100*float64(maxReads)/float64(l.Size))
}
