package sim

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/pdl/layout"
)

// End-to-end integration: drive the same workload through the timing
// simulator AND the byte-accurate data engine, then fail a disk and prove
// (a) the timing model charged degraded costs and (b) the data engine
// returns correct bytes for every degraded read.
func TestIntegrationTimingAndBytesAgree(t *testing.T) {
	rl, err := core.NewRingLayout(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(rl.Layout, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := layout.NewData(rl.Layout, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := data.Mapping().DataUnits()
	gen := NewUniform(n, 0.4, 77)
	mirror := make(map[int][]byte)
	var tick int64
	for i := 0; i < 800; i++ {
		op := gen.Next()
		switch op.Kind {
		case Read:
			if _, err := sim.ReadLogical(op.Logical, tick); err != nil {
				t.Fatal(err)
			}
			got, err := data.ReadLogical(op.Logical)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := mirror[op.Logical]
			if !ok {
				want = make([]byte, 8)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read mismatch at logical %d", i, op.Logical)
			}
		case Write:
			if _, err := sim.WriteLogical(op.Logical, tick); err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 8)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := data.WriteLogical(op.Logical, payload); err != nil {
				t.Fatal(err)
			}
			mirror[op.Logical] = payload
		}
		tick += 2
	}
	if err := data.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	// Fail a disk: degraded reads must return the same bytes the mirror
	// predicts, and the simulator must charge fan-out reads.
	const failed = 3
	if err := sim.Fail(failed); err != nil {
		t.Fatal(err)
	}
	preReads := int64(0)
	for _, s := range sim.Stats {
		preReads += s.Reads
	}
	checked := 0
	for logical := 0; logical < n && checked < 50; logical++ {
		u, err := data.Mapping().Map(logical, rl.Size)
		if err != nil {
			t.Fatal(err)
		}
		if u.Disk != failed {
			continue
		}
		checked++
		got, err := data.DegradedRead(logical, failed)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := mirror[logical]
		if !ok {
			want = make([]byte, 8)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("degraded read mismatch at logical %d", logical)
		}
		if _, err := sim.ReadLogical(logical, tick); err != nil {
			t.Fatal(err)
		}
		tick++
	}
	if checked == 0 {
		t.Fatal("no data units on the failed disk")
	}
	postReads := int64(0)
	for _, s := range sim.Stats {
		postReads += s.Reads
	}
	// Each degraded read charges k-1 = 2 survivor reads.
	if postReads-preReads != int64(2*checked) {
		t.Errorf("degraded reads charged %d survivor ops, want %d", postReads-preReads, 2*checked)
	}
	// Full rebuild must reproduce the failed disk byte-exactly.
	rebuilt, err := data.ReconstructDisk(failed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, data.DiskContents(failed)) {
		t.Fatal("rebuild mismatch after workload")
	}
}
