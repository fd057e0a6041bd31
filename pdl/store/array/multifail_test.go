package array_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store/array"
)

// lifecycleOps returns the operation count for the randomized lifecycle
// tests: def on a normal run, or PDL_LIFECYCLE_OPS when set (the nightly
// workflow cranks it up for a long soak).
func lifecycleOps(def int) int {
	if v := os.Getenv("PDL_LIFECYCLE_OPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestArrayTwoFailureLifecycle is the two-failure crash/reopen property
// test: a Reed–Solomon array (two parity units per stripe) under a
// random sequence of writes, disk failures (up to two at once, each
// scrubbing the disk file), per-disk rebuilds, and crash/reopen cycles —
// after every reopen the array must remember its whole failed set and
// agree byte-for-byte with the layout.Data reference model.
func TestArrayTwoFailureLifecycle(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const (
				v, k     = 9, 4
				unitSize = 32
			)
			ops := lifecycleOps(400)
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: v, K: k, UnitSize: unitSize, Backend: kind, ParityShards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := arr.Store().Code().Name(); got != "rs" {
				t.Fatalf("created array runs %q, want rs", got)
			}
			res, err := pdl.Build(v, k, pdl.WithParityShards(2))
			if err != nil {
				t.Fatal(err)
			}
			model, err := layout.NewData(res.Layout, unitSize)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(11))
			buf := make([]byte, unitSize)
			got := make([]byte, unitSize)
			var failed []int
			has := func(d int) bool {
				for _, x := range failed {
					if x == d {
						return true
					}
				}
				return false
			}

			check := func(tag string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					logical := rng.Intn(arr.Store().Capacity())
					want, err := model.ReadLogical(logical)
					if err != nil {
						t.Fatal(err)
					}
					if err := arr.Store().Read(logical, got); err != nil {
						t.Fatalf("%s: read %d (failed=%v): %v", tag, logical, failed, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: logical %d (failed=%v): array %x != model %x", tag, logical, failed, got, want)
					}
				}
			}

			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 65: // unit write (healthy or degraded)
					logical := rng.Intn(arr.Store().Capacity())
					payload(buf, rng.Int())
					if err := arr.Store().Write(logical, buf); err != nil {
						t.Fatal(err)
					}
					if err := model.WriteLogical(logical, buf); err != nil {
						t.Fatal(err)
					}
				case r < 78: // fail another disk (up to the code's two)
					if len(failed) < 2 {
						d := rng.Intn(v)
						if has(d) {
							break
						}
						if err := arr.Fail(d); err != nil {
							t.Fatal(err)
						}
						failed = append(failed, d)
						sort.Ints(failed)
					}
				case r < 86: // rebuild one disk (the lowest failed)
					if len(failed) > 0 {
						if _, err := arr.Rebuild(); err != nil {
							t.Fatal(err)
						}
						failed = failed[1:]
					}
				default: // crash: drop without Close, reopen
					arr, err = array.Open(dir, array.WithBackend(kind))
					if err != nil {
						t.Fatalf("reopen after crash (failed=%v): %v", failed, err)
					}
					gotFailed := arr.Store().FailedDisks()
					if len(gotFailed) != len(failed) {
						t.Fatalf("reopen forgot failures: %v, want %v", gotFailed, failed)
					}
					for j := range failed {
						if gotFailed[j] != failed[j] {
							t.Fatalf("reopen forgot failures: %v, want %v", gotFailed, failed)
						}
					}
					check("after crash", 20)
				}
			}

			// Settle: rebuild everything, then the full sweep and the
			// parity invariant must hold across one more crash/reopen.
			for len(failed) > 0 {
				if _, err := arr.Rebuild(); err != nil {
					t.Fatal(err)
				}
				failed = failed[1:]
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			for logical := 0; logical < arr.Store().Capacity(); logical++ {
				want, err := model.ReadLogical(logical)
				if err != nil {
					t.Fatal(err)
				}
				if err := arr.Store().Read(logical, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("final sweep: logical %d diverges", logical)
				}
			}
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestManifestFormatCompat pins the manifest version contract: default
// single-parity arrays still write format 1 (readable by older
// binaries), Reed–Solomon arrays write format 2, a hand-written version-1
// document decodes, and version-1 documents cannot smuggle format-2
// codec fields.
func TestManifestFormatCompat(t *testing.T) {
	t.Run("XORWritesV1", func(t *testing.T) {
		dir := t.TempDir()
		arr, err := array.Create(dir, array.CreateOptions{V: 5, K: 3, UnitSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		arr.Close()
		b, err := os.ReadFile(filepath.Join(dir, array.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(`"version": 1`)) {
			t.Fatalf("default array wrote a non-v1 manifest:\n%s", b)
		}
		if bytes.Contains(b, []byte("codec")) || bytes.Contains(b, []byte("parity_shards")) {
			t.Fatalf("default array leaked format-2 fields:\n%s", b)
		}
	})

	t.Run("RSWritesV2AndReopens", func(t *testing.T) {
		dir := t.TempDir()
		arr, err := array.Create(dir, array.CreateOptions{V: 9, K: 4, UnitSize: 16, ParityShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		buf := payload(make([]byte, 16), 3)
		if err := arr.Store().Write(0, buf); err != nil {
			t.Fatal(err)
		}
		arr.Close()
		b, err := os.ReadFile(filepath.Join(dir, array.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(`"version": 2`)) || !bytes.Contains(b, []byte(`"parity_shards": 2`)) {
			t.Fatalf("RS array manifest:\n%s", b)
		}
		arr, err = array.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer arr.Close()
		if arr.Store().Code().Name() != "rs" || arr.Store().Code().ParityShards() != 2 {
			t.Fatalf("reopened RS array runs %s/%d", arr.Store().Code().Name(), arr.Store().Code().ParityShards())
		}
		got := make([]byte, 16)
		if err := arr.Store().Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatal("RS array lost bytes across reopen")
		}
	})

	t.Run("RSOneParityShard", func(t *testing.T) {
		// A format-2 manifest may pin "rs" on a single-parity array: same
		// layout and plans as XOR, Cauchy coefficients instead of ones.
		// Written by hand over a freshly created (all-zero, so consistent
		// under any code) array.
		dir := t.TempDir()
		arr, err := array.Create(dir, array.CreateOptions{V: 7, K: 3, UnitSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		arr.Close()
		path := filepath.Join(dir, array.ManifestName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Replace(b, []byte(`"version": 1,`), []byte(`"version": 2, "codec": "rs",`), 1)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		arr, err = array.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer arr.Close()
		s := arr.Store()
		if s.Code().Name() != "rs" || s.Code().ParityShards() != 1 {
			t.Fatalf("array runs %s/%d, want rs/1", s.Code().Name(), s.Code().ParityShards())
		}
		buf := make([]byte, 64)
		for logical := 0; logical < s.Capacity(); logical++ {
			if err := s.Write(logical, payload(buf, logical)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatalf("after small writes: %v", err)
		}
		if err := arr.Fail(2); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, payload(buf, 99)); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatalf("after rebuild: %v", err)
		}
		got := make([]byte, 64)
		for logical := 0; logical < s.Capacity(); logical++ {
			want := payload(buf, logical)
			if logical == 1 {
				want = payload(buf, 99)
			}
			if err := s.Read(logical, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("logical %d after rebuild: %x, want %x (%v)", logical, got, want, err)
			}
		}
	})

	t.Run("V1FixtureDecodes", func(t *testing.T) {
		// The exact shape this package wrote before format 2 existed.
		fixture := []byte(`{
  "version": 1,
  "method": "ring",
  "v": 5,
  "k": 3,
  "unit_size": 16,
  "disk_units": 12,
  "disks": [
    {"file": "disk00.dat", "state": "healthy"},
    {"file": "disk01.dat", "state": "failed"},
    {"file": "disk02.dat", "state": "healthy"},
    {"file": "disk03.dat", "state": "rebuilt"},
    {"file": "disk04.dat", "state": "healthy"}
  ]
}`)
		m, err := array.DecodeManifest(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if m.Failed() != 1 || len(m.FailedDisks()) != 1 {
			t.Fatalf("v1 fixture: Failed=%d FailedDisks=%v", m.Failed(), m.FailedDisks())
		}
		c, err := m.Code()
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != "xor" || c.ParityShards() != 1 {
			t.Fatalf("v1 fixture code: %s/%d", c.Name(), c.ParityShards())
		}
	})

	t.Run("V1RejectsFormat2Fields", func(t *testing.T) {
		bad := []byte(`{
  "version": 1,
  "method": "ring",
  "v": 9,
  "k": 4,
  "unit_size": 16,
  "disk_units": 12,
  "parity_shards": 2,
  "disks": [
    {"file": "d0", "state": "healthy"}, {"file": "d1", "state": "healthy"},
    {"file": "d2", "state": "healthy"}, {"file": "d3", "state": "healthy"},
    {"file": "d4", "state": "healthy"}, {"file": "d5", "state": "healthy"},
    {"file": "d6", "state": "healthy"}, {"file": "d7", "state": "healthy"},
    {"file": "d8", "state": "healthy"}
  ]
}`)
		if _, err := array.DecodeManifest(bad); err == nil {
			t.Error("version-1 manifest with parity_shards accepted")
		}
	})

	t.Run("FailedBudget", func(t *testing.T) {
		two := []byte(`{
  "version": 2,
  "method": "ring",
  "v": 5,
  "k": 3,
  "unit_size": 16,
  "disk_units": 12,
  "disks": [
    {"file": "d0", "state": "failed"},
    {"file": "d1", "state": "failed"},
    {"file": "d2", "state": "healthy"},
    {"file": "d3", "state": "healthy"},
    {"file": "d4", "state": "healthy"}
  ]
}`)
		if _, err := array.DecodeManifest(two); err == nil {
			t.Error("two failed disks accepted on a single-parity manifest")
		}
		rs := bytes.Replace(two, []byte(`"disk_units": 12,`), []byte(`"disk_units": 12,
  "codec": "rs",
  "parity_shards": 2,`), 1)
		m, err := array.DecodeManifest(rs)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.FailedDisks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("FailedDisks() = %v, want [0 1]", got)
		}
	})
}
