//go:build linux || darwin

package array_test

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

// residentPages is how many pages of this process's mapping of the file
// at path are resident: the Rss of that mapping in /proc/self/smaps. A
// page a copy into the mapping faulted in counts; one written through
// the file's descriptor does not until a read maps it.
func residentPages(t *testing.T, path string) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	mine := false
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 5 && !strings.HasSuffix(f[0], ":"):
			// A mapping's header: address range, perms, offset, device,
			// inode, then the path of a file mapping.
			mine = strings.Join(f[5:], " ") == path
		case mine && len(f) == 3 && f[0] == "Rss:":
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10 / int64(os.Getpagesize())
		}
	}
	t.Fatalf("no mapping of %s in /proc/self/smaps", path)
	return 0
}

// TestMmapRebuildTakesNoFaultPerPage pins that an mmap array's Rebuild
// writes the lost disk through its file, not through the mapping: Fail
// truncates the disk's file, which unmaps its pages, and runs copied
// into those holes would fault every page back into the mapping (all
// 2 560 of G17's at 32 copies). After one warm-up cycle, each of
// three Fail+Rebuild cycles must leave fewer than one page in eight of
// the rebuilt disk's mapping resident — counted on that mapping alone,
// before anything reads it — and every cycle must leave the disk equal to
// the layout.Data model, read back through the mapping. Linux only: that
// is where /proc/self/smaps gives the count.
func TestMmapRebuildTakesNoFaultPerPage(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("a mapping's resident pages are counted on Linux only")
	}
	const (
		v, k, copies = 17, 5, 32
		unitSize     = 4096
		target       = 0
	)
	dir := t.TempDir()
	arr, err := array.Create(dir, array.CreateOptions{V: v, K: k, Copies: copies, UnitSize: unitSize, Backend: array.Mmap})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	s := arr.Store()
	res, err := pdl.Build(v, k)
	if err != nil {
		t.Fatal(err)
	}
	// The mapper stacks copy cp at disk offset cp*Layout.Size and logical
	// address cp*perCopy: one model per copy, written a copy at a time.
	perCopy := s.Capacity() / copies
	var want []byte
	buf := make([]byte, perCopy*unitSize)
	for cp := 0; cp < copies; cp++ {
		model, err := layout.NewData(res.Layout, unitSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perCopy; i++ {
			unit := payload(buf[i*unitSize:(i+1)*unitSize], cp*perCopy+i)
			if err := model.WriteLogical(i, unit); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.WriteAt(buf, int64(cp*perCopy)*unitSize); err != nil {
			t.Fatal(err)
		}
		want = append(want, model.DiskContents(target)...)
	}

	pages := int64(len(want) / os.Getpagesize())
	got := make([]byte, len(want))
	path := s.DiskBackend(target).(*store.MmapDisk).File().Name()
	// Cycle 0 is an uncounted warm-up; the bound holds from cycle 1.
	for cycle := 0; cycle <= 3; cycle++ {
		if err := arr.Fail(target); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		resident := residentPages(t, path)
		t.Logf("cycle %d: %d of %d pages of the rebuilt disk's mapping resident", cycle, resident, pages)
		if cycle > 0 && resident >= pages/8 {
			t.Errorf("cycle %d: Rebuild left %d pages of a %d-page disk's mapping resident, want < %d", cycle, resident, pages, pages/8)
		}
		if err := s.VerifyParity(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DiskBackend(target).ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: rebuilt disk %d differs from the model's contents", cycle, target)
		}
	}
}
