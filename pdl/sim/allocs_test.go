//go:build !race

// The allocs regression gate (CI): the simulator compiles every client
// operation against the array's one-element failed set, so serving an op
// allocates nothing in steady state. Excluded under -race, whose
// instrumentation changes allocation behavior.

package sim_test

import (
	"testing"

	"repro/pdl/sim"
)

func TestSimHotPathAllocs(t *testing.T) {
	for _, failed := range []int{-1, 2} {
		a := newArray(t, sim.Config{Copies: 2})
		if failed >= 0 {
			if err := a.Fail(failed); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		for name, op := range map[string]func(int, int64) (int64, error){
			"ReadLogical":     a.ReadLogical,
			"WriteLogical":    a.WriteLogical,
			"WriteFullStripe": a.WriteFullStripe,
		} {
			f := func() {
				if _, err := op(i%a.DataUnits(), int64(i)); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for w := 0; w < 8; w++ {
				f()
			}
			if n := testing.AllocsPerRun(200, f); n != 0 {
				t.Errorf("failed %d: %s allocates %v/op, want 0", failed, name, n)
			}
		}
	}
}
