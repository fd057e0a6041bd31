package sim

import (
	"testing"

	"repro/pdl/layout"
)

func TestWriteFullStripeNoReads(t *testing.T) {
	a := declusteredArray(t, 9, 3)
	done, err := a.WriteFullStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 { // k parallel writes, 1 service tick
		t.Errorf("full-stripe write latency %d, want 1", done)
	}
	var reads, writes int64
	for _, s := range a.Stats {
		reads += s.Reads
		writes += s.Writes
	}
	if reads != 0 {
		t.Errorf("full-stripe write issued %d reads, want 0", reads)
	}
	if writes != 3 { // k units
		t.Errorf("full-stripe write issued %d writes, want 3", writes)
	}
}

func TestWriteFullStripeCheaperThanSmallWrites(t *testing.T) {
	// Writing a whole stripe via k-1 small writes costs 4(k-1) ops;
	// the large-write path costs k.
	small := declusteredArray(t, 9, 3)
	if _, err := small.WriteLogical(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := small.WriteLogical(1, 2); err != nil {
		t.Fatal(err)
	}
	large := declusteredArray(t, 9, 3)
	if _, err := large.WriteFullStripe(0, 0); err != nil {
		t.Fatal(err)
	}
	ops := func(a *Array) int64 {
		var n int64
		for _, s := range a.Stats {
			n += s.Reads + s.Writes
		}
		return n
	}
	if ops(large) >= ops(small) {
		t.Errorf("large write ops %d not below small-write ops %d", ops(large), ops(small))
	}
}

// stripeOf returns the stripe covering a physical unit.
func stripeOf(a *Array, u layout.Unit) *layout.Stripe {
	return &a.L.Stripes[a.Mapping.StripeAt(u)]
}

func TestWriteFullStripeDegradedSkipsFailed(t *testing.T) {
	a := declusteredArray(t, 9, 3)
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Find a stripe crossing disk 0.
	var logical = -1
	for i := 0; i < a.Mapping.DataUnits(); i++ {
		u, err := a.Mapping.Map(i, a.L.Size)
		if err != nil {
			t.Fatal(err)
		}
		s := stripeOf(a, u)
		for _, su := range s.Units {
			if su.Disk == 0 {
				logical = i
				break
			}
		}
		if logical >= 0 {
			break
		}
	}
	if logical < 0 {
		t.Fatal("no stripe crossing disk 0")
	}
	if _, err := a.WriteFullStripe(logical, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats[0].Writes != 0 {
		t.Error("wrote to the failed disk")
	}
	var writes int64
	for _, s := range a.Stats {
		writes += s.Writes
	}
	if writes != 2 { // k-1 survivors
		t.Errorf("degraded full-stripe writes %d, want 2", writes)
	}
}

func TestWriteFullStripeBadAddress(t *testing.T) {
	a := declusteredArray(t, 9, 3)
	if _, err := a.WriteFullStripe(-1, 0); err == nil {
		t.Error("bad address accepted")
	}
}
