package array_test

import (
	"encoding/json"
	"testing"

	"repro/pdl/store/array"
)

// FuzzOpenManifest throws arbitrary bytes at the manifest decoder (the
// same entry Open uses): it must error cleanly on hostile, truncated, or
// version-skewed documents — never panic or index out of range — and
// anything it accepts must survive an encode/decode round trip with the
// validated invariants intact. Run as a CI smoke alongside the wire
// protocol's FuzzDecodeRequest.
func FuzzOpenManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte(`{"version": 1, "v": 3, "k": 2, "unit_size": 1, "disk_units": 1, "disks": []}`))
	f.Add([]byte(`{"version": 1, "v": 2, "k": 2, "unit_size": 4096, "disk_units": 12,
		"disks": [{"file": "disk00.dat", "state": "healthy"}, {"file": "../escape", "state": "failed"}]}`))
	f.Add([]byte(`{"version": 1, "method": "ring", "v": 3, "k": 3, "unit_size": 16, "disk_units": 3,
		"disks": [{"file": "disk00.dat", "state": "healthy"},
		          {"file": "disk01.dat", "state": "failed"},
		          {"file": "disk02.dat", "state": "rebuilt"}]}`))
	f.Add([]byte(`{"version": 1, "v": 3, "k": 3, "unit_size": 16, "disk_units": 3,
		"disks": [{"file": "a", "state": "failed"}, {"file": "b", "state": "failed"}, {"file": "c", "state": "healthy"}]}`))
	f.Add([]byte(`{"version": 1, "v": 2, "k": 2, "unit_size": 16, "disk_units": 2,
		"disks": [{"file": "same.dat", "state": "healthy"}, {"file": "same.dat", "state": "healthy"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := array.DecodeManifest(body)
		if err != nil {
			return
		}
		// Accepted manifests satisfy the invariants Open relies on.
		if len(m.Disks) != m.V || m.V < 2 || m.K < 2 || m.K > m.V || m.UnitSize < 1 || m.DiskUnits < 1 {
			t.Fatalf("decoder accepted out-of-invariant manifest: %+v", m)
		}
		fd := m.FailedDisks()
		for i, f := range fd {
			if f < 0 || f >= m.V || i > 0 && f <= fd[i-1] {
				t.Fatalf("FailedDisks() = %v: not increasing in [0,%d)", fd, m.V)
			}
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := array.DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if again.Version != m.Version || again.V != m.V || again.K != m.K ||
			again.UnitSize != m.UnitSize || again.DiskUnits != m.DiskUnits ||
			len(again.Disks) != len(m.Disks) {
			t.Fatalf("round trip diverges:\n in %+v\nout %+v", m, again)
		}
	})
}
