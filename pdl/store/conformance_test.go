package store_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pdl/store"
	"repro/pdl/store/storetest"
)

// TestBackendConformance runs the exported storetest contract suite
// against every shipped Backend, so MemDisk, FileDisk, and MmapDisk (real
// mapping or platform fallback alike) share one pinned behavior.
func TestBackendConformance(t *testing.T) {
	t.Run("MemDisk", func(t *testing.T) {
		storetest.TestBackend(t, func(t testing.TB, size int64) store.Backend {
			return store.NewMemDisk(size)
		})
	})
	t.Run("MemDiskTrimmedTail", testMemDiskTrimmedTail)
	t.Run("FileDisk", func(t *testing.T) {
		storetest.TestBackend(t, func(t testing.TB, size int64) store.Backend {
			d, err := store.CreateFileDisk(filepath.Join(t.TempDir(), "disk.dat"), size)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
	})
	t.Run("MmapDisk", func(t *testing.T) {
		storetest.TestBackend(t, func(t testing.TB, size int64) store.Backend {
			d, err := store.CreateMmapDisk(filepath.Join(t.TempDir(), "disk.dat"), size)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})
	})
}

// testMemDiskTrimmedTail runs the MemDisk row's edge cases at a size that
// is not a whole number of huge pages (2 MiB + 4 KiB + 17 bytes): on Linux
// the slab then ends inside its mapping, and Size, the tail read and the
// bound on writes must still be the disk's, not the mapping's.
func testMemDiskTrimmedTail(t *testing.T) {
	const size = 2<<20 + 4<<10 + 17
	d := store.NewMemDisk(size)
	defer d.Close()
	if got := d.Size(); got != size {
		t.Fatalf("Size() = %d, want %d", got, size)
	}
	want := payload(make([]byte, 40), 9)
	if _, err := d.WriteAt(want, size-40); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if n, err := d.ReadAt(got, size-40); n != 40 || err != io.EOF || !bytes.Equal(got[:n], want) {
		t.Fatalf("tail read: n=%d err=%v, want the 40 written bytes and io.EOF", n, err)
	}
	if n, err := d.ReadAt(got, size); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(size): n=%d err=%v, want 0, io.EOF", n, err)
	}
	for _, off := range []int64{size - 1, size} {
		if n, err := d.WriteAt([]byte{0xee, 0xee}, off); n != 0 || err == nil {
			t.Fatalf("WriteAt(2 bytes at %d) past the end: n=%d err=%v, want refused", off, n, err)
		}
	}
	if _, err := d.ReadAt(got[:1], size-1); err != nil || got[0] != want[39] {
		t.Fatalf("last byte %#x (err %v) after refused writes, want %#x", got[0], err, want[39])
	}
}

// TestMemDiskClose pins MemDisk's lifetime on a heap slab (below one huge
// page) and a 4 MiB one (off the heap on Linux): Close empties the disk
// and is idempotent, and on Linux a 4 MiB disk dropped without Close is
// unmapped once the garbage collector finds it unreachable.
func TestMemDiskClose(t *testing.T) {
	for _, size := range []int64{4 << 10, 4 << 20} {
		d := store.NewMemDisk(size)
		if _, err := d.WriteAt([]byte{1}, size-1); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("size %d: Close: %v", size, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("size %d: second Close: %v", size, err)
		}
		if n, err := d.ReadAt(make([]byte, 1), 0); n != 0 || err != io.EOF {
			t.Fatalf("size %d: ReadAt after Close: n=%d err=%v, want 0, io.EOF", size, n, err)
		}
		if n, err := d.WriteAt([]byte{1}, 0); n != 0 || err == nil {
			t.Fatalf("size %d: WriteAt after Close: n=%d err=%v, want an error", size, n, err)
		}
	}
	if runtime.GOOS != "linux" {
		return
	}
	addr := func() uintptr { return store.SlabAddr(store.NewMemDisk(4 << 20)) }()
	vma := mapping(t, "/proc/self/maps", addr, "")
	if vma == "" {
		t.Fatalf("4 MiB slab at %#x is in no mapping of /proc/self/maps", addr)
	}
	runtime.GC()
	runtime.GC()
	// Cleanups run on their own goroutine after the collection queues
	// them: give it a moment.
	for deadline := time.Now().Add(5 * time.Second); mapping(t, "/proc/self/maps", addr, "") == vma; {
		if time.Now().After(deadline) {
			t.Fatalf("slab mapping %s still present after the MemDisk was dropped and collected", vma)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMemDiskHugePages fills an 8 MiB MemDisk and requires that some of it
// sits on transparent huge pages: MemDisk advises its slab MADV_HUGEPAGE,
// which is what lets THP back it in the default "madvise" mode.
func TestMemDiskHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages unavailable (%q, %v)", bytes.TrimSpace(mode), err)
	}
	const size = 8 << 20
	d := store.NewMemDisk(size)
	defer d.Close()
	if _, err := d.WriteAt(payload(make([]byte, size), 5), 0); err != nil {
		t.Fatal(err)
	}
	kb := mapping(t, "/proc/self/smaps", store.SlabAddr(d), "AnonHugePages:")
	if n, err := strconv.Atoi(strings.TrimSuffix(kb, " kB")); err != nil || n == 0 {
		t.Fatalf("filled 8 MiB MemDisk: AnonHugePages %q, want > 0 kB", kb)
	}
}

// mapping finds the entry of a /proc/self maps-format file whose address
// range holds addr. With field empty it returns the entry's range
// ("start-end"); otherwise the trimmed value of the entry's line that
// starts with field (smaps). It returns "" when no entry holds addr.
func mapping(t *testing.T, path string, addr uintptr, field string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uint64
		if _, err := fmt.Sscanf(line, "%x-%x ", &lo, &hi); err == nil {
			if in {
				return ""
			}
			if in = uint64(addr) >= lo && uint64(addr) < hi; in && field == "" {
				return strings.Fields(line)[0]
			}
			continue
		}
		if in && strings.HasPrefix(line, field) {
			return strings.TrimSpace(strings.TrimPrefix(line, field))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ""
}

// TestMmapDiskPersists checks bytes written through the mapping are
// visible to a fresh open (Flush + reopen round trip), and that Close is
// idempotent.
func TestMmapDiskPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.dat")
	const size = 1 << 14
	d, err := store.CreateMmapDisk(path, size)
	if err != nil {
		t.Fatal(err)
	}
	want := payload(make([]byte, 777), 3)
	if _, err := d.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r, err := store.OpenMmapDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != size {
		t.Fatalf("reopened Size() = %d, want %d", r.Size(), size)
	}
	got := make([]byte, len(want))
	if _, err := r.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d: %#x != %#x", i, got[i], want[i])
		}
	}
}

// TestFileDiskRunPast4GiB writes a vectored run 4 KiB past 4 GiB into a
// sparse 5 GiB FileDisk: it must land there, not 4 GiB lower where an
// offset cut to its low 32 bits would put it (CI runs it under
// GOARCH=386 too). A run that would end past the disk fails and writes
// nothing.
func TestFileDiskRunPast4GiB(t *testing.T) {
	const size, off = 5 << 30, 4<<30 + 4<<10
	d, err := store.CreateFileDisk(filepath.Join(t.TempDir(), "disk.dat"), size)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bufs := [][]byte{payload(make([]byte, 4096), 1), payload(make([]byte, 100), 2), payload(make([]byte, 8192), 3)}
	if err := store.WriteRun(d, bufs, off); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(bufs, nil)
	got := make([]byte, len(want))
	if _, err := d.ReadAt(got, off); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the run does not read back at %d (%v)", int64(off), err)
	}
	if _, err := d.ReadAt(got, off-4<<30); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("bytes at %d are not zero (%v)", int64(off-4<<30), err)
	}
	var end int64 = size - 100
	if err := store.WriteRun(d, bufs, end); err == nil {
		t.Fatalf("a run of %d bytes at %d of a %d-byte disk did not fail", len(want), end, int64(size))
	}
	if _, err := d.ReadAt(got[:100], end); err != nil || !bytes.Equal(got[:100], make([]byte, 100)) {
		t.Fatalf("a failed run wrote at %d (%v)", end, err)
	}
}

// TestWriteRunMergesAdjacentBuffers pins writeRun's merge: buffers that
// follow one another in one array, within the first one's capacity, reach
// a WriteAt-only backend as one WriteAt; buffers with a gap between them,
// or a capacity that stops short of the next one's end, as one each. The disk's bytes
// are the buffers back to back either way.
func TestWriteRunMergesAdjacentBuffers(t *testing.T) {
	const off = 96
	arr := payload(make([]byte, 4*64), 5)
	for _, tc := range []struct {
		name   string
		bufs   [][]byte
		writes int64
	}{
		{"adjacent", [][]byte{arr[:64], arr[64:128], arr[128:192]}, 1},
		{"gap", [][]byte{arr[:64], arr[128:192]}, 2},
		{"capped", [][]byte{arr[:64:64], arr[64:128]}, 2},
		{"capped inside the next", [][]byte{arr[:64:96], arr[64:128]}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := bytes.Join(tc.bufs, nil)
			var writes atomic.Int64
			d := store.NewMemDisk(512)
			if err := store.WriteRun(countingDisk{d, &writes}, tc.bufs, off); err != nil {
				t.Fatal(err)
			}
			if n := writes.Load(); n != tc.writes {
				t.Errorf("%d WriteAt calls, want %d", n, tc.writes)
			}
			got := make([]byte, 512)
			if _, err := d.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[off:off+len(want)], want) || !bytes.Equal(got[:off], make([]byte, off)) || !bytes.Equal(got[off+len(want):], make([]byte, 512-off-len(want))) {
				t.Fatal("the disk does not hold the buffers back to back at the run's offset and nothing else")
			}
		})
	}
}
