package array_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store/array"
)

// backends are the persistent BackendKinds every lifecycle test runs
// against (Mmap resolves to the platform fallback where unsupported).
var backends = []array.BackendKind{array.File, array.Mmap}

// downSet is the failed set of a test that keeps at most one disk
// down: [d], or none when d < 0.
func downSet(d int) []int {
	if d < 0 {
		return nil
	}
	return []int{d}
}

// payload fills a deterministic, unit-distinct pattern.
func payload(buf []byte, seed int) []byte {
	for j := range buf {
		buf[j] = byte(seed*31 + j*7 + 1)
	}
	return buf
}

// refModel rebuilds the layout the array was created with and wraps it in
// the single-threaded layout.Data reference engine.
func refModel(t *testing.T, v, k, unitSize int) *layout.Data {
	t.Helper()
	res, err := pdl.Build(v, k)
	if err != nil {
		t.Fatal(err)
	}
	model, err := layout.NewData(res.Layout, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestArrayLifecycleCrashRecovery is the randomized crash/reopen
// property test: a random sequence of unit writes, disk failures, and
// rebuilds, with the array periodically "crashed" (dropped without
// Close) and reopened — after every reopen the array must agree
// byte-for-byte with the layout.Data reference model and remember its
// failure state.
func TestArrayLifecycleCrashRecovery(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const (
				v, k     = 9, 3
				unitSize = 32
				ops      = 400
			)
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: v, K: k, UnitSize: unitSize, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			model := refModel(t, v, k, unitSize)
			rng := rand.New(rand.NewSource(7))
			buf := make([]byte, unitSize)
			got := make([]byte, unitSize)
			failed := -1

			check := func(tag string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					logical := rng.Intn(arr.Store().Capacity())
					want, err := model.ReadLogical(logical)
					if err != nil {
						t.Fatal(err)
					}
					if err := arr.Store().Read(logical, got); err != nil {
						t.Fatalf("%s: read %d: %v", tag, logical, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: logical %d: array %x != model %x", tag, logical, got, want)
					}
				}
			}

			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 70: // unit write (healthy or degraded)
					logical := rng.Intn(arr.Store().Capacity())
					payload(buf, rng.Int())
					if err := arr.Store().Write(logical, buf); err != nil {
						t.Fatal(err)
					}
					if err := model.WriteLogical(logical, buf); err != nil {
						t.Fatal(err)
					}
				case r < 78: // fail a random disk
					if failed < 0 {
						failed = rng.Intn(v)
						if err := arr.Fail(failed); err != nil {
							t.Fatal(err)
						}
					}
				case r < 84: // rebuild
					if failed >= 0 {
						if _, err := arr.Rebuild(); err != nil {
							t.Fatal(err)
						}
						failed = -1
					}
				default: // crash: drop without Close, reopen
					arr, err = array.Open(dir, array.WithBackend(kind))
					if err != nil {
						t.Fatalf("reopen after crash: %v", err)
					}
					if got := arr.Store().FailedDisks(); !slices.Equal(got, downSet(failed)) {
						t.Fatalf("reopen forgot failure state: FailedDisks = %v, want %v", got, downSet(failed))
					}
					check("after crash", 20)
				}
			}

			// Settle: rebuild if degraded, then the full sweep and the
			// parity invariant must hold across one more crash/reopen.
			if failed >= 0 {
				if _, err := arr.Rebuild(); err != nil {
					t.Fatal(err)
				}
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

// TestArrayFailPersistsAcrossCrash pins the headline durability fix: a
// scrubbed disk must never be served as healthy after a restart.
func TestArrayFailPersistsAcrossCrash(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const (
				v, k     = 7, 3
				unitSize = 64
			)
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: v, K: k, UnitSize: unitSize, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, unitSize)
			for i := 0; i < arr.Store().Capacity(); i++ {
				if err := arr.Store().Write(i, payload(buf, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.Fail(2); err != nil {
				t.Fatal(err)
			}
			if m := arr.Manifest(); m.Disks[2].State != array.DiskFailed || !slices.Equal(m.FailedDisks(), []int{2}) {
				t.Fatalf("manifest after Fail: %+v", m.Disks)
			}

			// Crash (no Close), reopen: still degraded, bytes still correct.
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if got := arr.Store().FailedDisks(); !slices.Equal(got, []int{2}) {
				t.Fatalf("restart forgot the scrubbed disk: FailedDisks = %v, want [2]", got)
			}
			got := make([]byte, unitSize)
			for i := 0; i < arr.Store().Capacity(); i++ {
				if err := arr.Store().Read(i, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload(buf, i)) {
					t.Fatalf("degraded read %d after restart diverges", i)
				}
			}

			// Degraded writes survive another crash too.
			if err := arr.Store().Write(3, payload(buf, 10007)); err != nil {
				t.Fatal(err)
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.Store().Read(3, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload(buf, 10007)) {
				t.Fatal("degraded write lost across restart")
			}

			// Rebuild, close cleanly, reopen: healthy, history recorded.
			if _, err := arr.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if err := arr.Close(); err != nil {
				t.Fatal(err)
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			if got := arr.Store().FailedDisks(); len(got) != 0 {
				t.Fatalf("after rebuild+restart: FailedDisks = %v, want []", got)
			}
			if m := arr.Manifest(); m.Disks[2].State != array.DiskRebuilt {
				t.Fatalf("rebuild history not recorded: disk 2 state %q", m.Disks[2].State)
			}
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornManifestAndStaleStaging proves the atomic-rename protocol: a
// crash mid-Sync leaves array.json.tmp (possibly garbage) next to a good
// array.json, and an older build that crashed mid-Rebuild leaves a stale
// .rebuild staging file (Rebuild now writes in place) — Open must use
// the committed manifest, ignore and remove both leftovers, and serve
// the committed bytes.
func TestTornManifestAndStaleStaging(t *testing.T) {
	const unitSize = 64
	dir := t.TempDir()
	arr, err := array.Create(dir, array.CreateOptions{V: 7, K: 3, UnitSize: unitSize})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, unitSize)
	for i := 0; i < arr.Store().Capacity(); i++ {
		if err := arr.Store().Write(i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := arr.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn Sync and the interrupted rebuild.
	torn := filepath.Join(dir, array.ManifestName+".tmp")
	if err := os.WriteFile(torn, []byte(`{"version": 9, "truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "disk03.dat.rebuild")
	if err := os.WriteFile(stale, []byte("stale reconstruction"), 0o644); err != nil {
		t.Fatal(err)
	}

	arr, err = array.Open(dir)
	if err != nil {
		t.Fatalf("Open with torn staging files: %v", err)
	}
	defer arr.Close()
	for _, leftover := range []string{torn, stale} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived Open", filepath.Base(leftover))
		}
	}
	got := make([]byte, unitSize)
	for i := 0; i < arr.Store().Capacity(); i++ {
		if err := arr.Store().Read(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(buf, i)) {
			t.Fatalf("read %d diverges after torn-manifest recovery", i)
		}
	}
	if err := arr.Store().VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenErrors pins the failure modes: version skew, corrupt JSON,
// geometry mismatches, and bad backends all error cleanly.
func TestOpenErrors(t *testing.T) {
	if _, err := array.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open of a non-array directory accepted")
	}

	mk := func(t *testing.T) string {
		dir := t.TempDir()
		arr, err := array.Create(dir, array.CreateOptions{V: 5, K: 3, UnitSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		arr.Close()
		return dir
	}

	t.Run("VersionSkew", func(t *testing.T) {
		dir := mk(t)
		b, err := os.ReadFile(filepath.Join(dir, array.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		skewed := bytes.Replace(b, []byte(`"version": 1`), []byte(`"version": 99`), 1)
		if bytes.Equal(skewed, b) {
			t.Fatal("version field not found to skew")
		}
		if err := os.WriteFile(filepath.Join(dir, array.ManifestName), skewed, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = array.Open(dir)
		if !errors.Is(err, array.ErrVersion) {
			t.Fatalf("future-format Open: %v, want ErrVersion", err)
		}
	})

	t.Run("CorruptManifest", func(t *testing.T) {
		dir := mk(t)
		if err := os.WriteFile(filepath.Join(dir, array.ManifestName), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := array.Open(dir); err == nil {
			t.Error("corrupt manifest accepted")
		}
	})

	t.Run("TruncatedDisk", func(t *testing.T) {
		dir := mk(t)
		if err := os.Truncate(filepath.Join(dir, "disk01.dat"), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := array.Open(dir); err == nil {
			t.Error("truncated disk file accepted")
		}
	})

	t.Run("BadBackend", func(t *testing.T) {
		dir := mk(t)
		if _, err := array.Open(dir, array.WithBackend("ramdouble")); err == nil {
			t.Error("unknown backend kind accepted")
		}
	})

	t.Run("CreateTwice", func(t *testing.T) {
		dir := mk(t)
		if _, err := array.Create(dir, array.CreateOptions{V: 5, K: 3}); err == nil {
			t.Error("Create over an existing array accepted")
		}
	})
}

// TestDiskPath pins that the manifest owns disk naming.
func TestDiskPath(t *testing.T) {
	dir := t.TempDir()
	arr, err := array.Create(dir, array.CreateOptions{V: 5, K: 3, UnitSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	p, err := arr.DiskPath(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("DiskPath(4) = %s: %v", p, err)
	}
	if _, err := arr.DiskPath(5); err == nil {
		t.Error("out-of-range DiskPath accepted")
	}
}

// TestOpenResizesShortFailedDisk is the crash inside Fail's scrub: the
// scrub truncates the disk file and then re-sizes it, and a crash
// between the two leaves a failed disk holding 0 bytes. Open must
// re-size it (its bytes are scrubbed by definition) and serve the array
// degraded, and Rebuild must restore it — while a short healthy disk is
// still refused (TestOpenErrors/TruncatedDisk).
func TestOpenResizesShortFailedDisk(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const unitSize = 512
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: 7, K: 3, Copies: 2, UnitSize: unitSize, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, unitSize)
			for i := 0; i < arr.Store().Capacity(); i++ {
				if err := arr.Store().Write(i, payload(buf, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.Fail(2); err != nil {
				t.Fatal(err)
			}
			path, err := arr.DiskPath(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}

			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatalf("Open with a failed disk cut short by a crash mid-scrub: %v", err)
			}
			defer func() { arr.Close() }()
			if got := arr.Store().FailedDisks(); !slices.Equal(got, []int{2}) {
				t.Fatalf("FailedDisks = %v after reopen, want [2]", got)
			}
			checkPayloads := func(tag string) {
				t.Helper()
				got := make([]byte, unitSize)
				for i := 0; i < arr.Store().Capacity(); i++ {
					if err := arr.Store().Read(i, got); err != nil {
						t.Fatalf("%s: read %d: %v", tag, i, err)
					}
					if !bytes.Equal(got, payload(buf, i)) {
						t.Fatalf("%s: read %d diverges", tag, i)
					}
				}
			}
			checkPayloads("degraded")
			if _, err := arr.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
			checkPayloads("rebuilt")
		})
	}
}

// TestRebuildSyncErrorKeepsDiskFailed pins that a Rebuild whose closing
// sync fails leaves the store and the manifest agreeing that the disk is
// still failed: the array serves it degraded, a second failure on a
// single-parity array is refused instead of being recorded beside it,
// the next Rebuild rewrites the disk, and the array reopens healthy.
func TestRebuildSyncErrorKeepsDiskFailed(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const unitSize = 256
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: 7, K: 3, Copies: 2, UnitSize: unitSize, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { arr.Close() }()
			buf := make([]byte, unitSize)
			got := make([]byte, unitSize)
			checkPayloads := func(tag string) {
				t.Helper()
				for i := 0; i < arr.Store().Capacity(); i++ {
					if err := arr.Store().Read(i, got); err != nil {
						t.Fatalf("%s: read %d: %v", tag, i, err)
					}
					if !bytes.Equal(got, payload(buf, i)) {
						t.Fatalf("%s: read %d diverges", tag, i)
					}
				}
			}
			for i := 0; i < arr.Store().Capacity(); i++ {
				if err := arr.Store().Write(i, payload(buf, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.Fail(2); err != nil {
				t.Fatal(err)
			}

			injected := errors.New("injected sync failure")
			restore := array.FailSync(injected)
			_, err = arr.Rebuild()
			restore()
			if !errors.Is(err, injected) {
				t.Fatalf("Rebuild with a failing sync: %v, want the sync error", err)
			}
			if got := arr.Store().FailedDisks(); !slices.Equal(got, []int{2}) {
				t.Fatalf("store FailedDisks = %v after the failed sync, want [2] (the manifest's)", got)
			}
			if m := arr.Manifest(); m.Disks[2].State != array.DiskFailed {
				t.Fatalf("manifest says disk 2 is %q after the failed sync, want %q", m.Disks[2].State, array.DiskFailed)
			}
			checkPayloads("degraded after the failed sync")
			if err := arr.Fail(4); err == nil {
				t.Fatal("Fail(4) accepted with disk 2 still down on a single-parity array")
			}
			if m := arr.Manifest(); len(m.FailedDisks()) != 1 {
				t.Fatalf("manifest failed disks %v, want [2]", m.FailedDisks())
			}

			if _, err := arr.Rebuild(); err != nil {
				t.Fatalf("Rebuild after the failed sync: %v", err)
			}
			if m := arr.Manifest(); m.Disks[2].State != array.DiskRebuilt {
				t.Fatalf("disk 2 state %q after Rebuild, want %q", m.Disks[2].State, array.DiskRebuilt)
			}
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
			checkPayloads("rebuilt")
			if err := arr.Close(); err != nil {
				t.Fatal(err)
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if got := arr.Store().FailedDisks(); len(got) != 0 {
				t.Fatalf("FailedDisks = %v after reopen, want []", got)
			}
			checkPayloads("reopened")
		})
	}
}

// TestInPlaceRebuildCrash is the crash story of the in-place rebuild: a
// crash mid-rebuild leaves the failed disk's own file holding arbitrary
// bytes while the manifest still says failed. Reopened, the array must
// serve every unit right (degraded, never reading that file); Rebuild
// must rewrite the same file — no staging file, no rename — and after
// VerifyParity and another reopen the array must still equal the model.
func TestInPlaceRebuildCrash(t *testing.T) {
	for _, kind := range backends {
		t.Run(string(kind), func(t *testing.T) {
			const (
				v, k     = 9, 3
				unitSize = 256
				failDisk = 4
			)
			dir := t.TempDir()
			arr, err := array.Create(dir, array.CreateOptions{V: v, K: k, UnitSize: unitSize, Backend: kind})
			if err != nil {
				t.Fatal(err)
			}
			model := refModel(t, v, k, unitSize)
			buf := make([]byte, unitSize)
			for i := 0; i < arr.Store().Capacity(); i++ {
				payload(buf, i+3)
				if err := arr.Store().Write(i, buf); err != nil {
					t.Fatal(err)
				}
				if err := model.WriteLogical(i, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := arr.Fail(failDisk); err != nil {
				t.Fatal(err)
			}
			path, err := arr.DiskPath(failDisk)
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			garbage := make([]byte, st.Size())
			rand.New(rand.NewSource(1)).Read(garbage)
			if err := os.WriteFile(path, garbage, 0o644); err != nil {
				t.Fatal(err)
			}

			got := make([]byte, unitSize)
			checkModel := func(tag string) {
				t.Helper()
				for i := 0; i < arr.Store().Capacity(); i++ {
					want, err := model.ReadLogical(i)
					if err != nil {
						t.Fatal(err)
					}
					if err := arr.Store().Read(i, got); err != nil {
						t.Fatalf("%s: read %d: %v", tag, i, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: logical %d: array %x != model %x", tag, i, got, want)
					}
				}
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			if got := arr.Store().FailedDisks(); !slices.Equal(got, []int{failDisk}) {
				t.Fatalf("FailedDisks = %v after reopen, want [%d]", got, failDisk)
			}
			checkModel("degraded over a garbage disk file")

			// Watch the directory for a staging file while Rebuild runs.
			staged := make(chan string, 1)
			stop := make(chan struct{})
			go func() {
				defer close(staged)
				for {
					if m, _ := filepath.Glob(filepath.Join(dir, "*.rebuild")); len(m) > 0 {
						staged <- m[0]
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			if _, err := arr.Rebuild(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			if name, ok := <-staged; ok {
				t.Errorf("Rebuild staged %s; want the failed disk rebuilt in place", filepath.Base(name))
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(st, after) {
				t.Error("Rebuild replaced the disk file; want it rewritten in place")
			}
			if m := arr.Manifest(); m.Disks[failDisk].State != array.DiskRebuilt {
				t.Fatalf("disk %d state %q after Rebuild, want %q", failDisk, m.Disks[failDisk].State, array.DiskRebuilt)
			}
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
			checkModel("rebuilt")

			if err := arr.Close(); err != nil {
				t.Fatal(err)
			}
			arr, err = array.Open(dir, array.WithBackend(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			if got := arr.Store().FailedDisks(); len(got) != 0 {
				t.Fatalf("FailedDisks = %v after the rebuilt array reopened, want []", got)
			}
			checkModel("reopened")
			if err := arr.Store().VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
