//go:build linux || darwin

package array_test

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"syscall"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store/array"
)

// minorFaults is the process's minor page-fault count so far.
func minorFaults(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return int64(ru.Minflt)
}

// TestMmapRebuildTakesNoFaultPerPage pins that an mmap array's Rebuild
// writes the lost disk through its file, not through the mapping: Fail
// truncates the disk's file, and runs copied into those holes would take
// a minor fault on almost every page (≈ 2 200 of G17's 2 560 at 32
// copies). After one warm-up cycle, each of three Fail+Rebuild cycles
// must take fewer than one fault per eight pages of the rebuilt disk, and
// every cycle must leave it equal to the layout.Data model, read back
// through the mapping. Linux only: that is where the fault count is
// pinned.
func TestMmapRebuildTakesNoFaultPerPage(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("minor-fault counts are pinned on Linux only")
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
	// Cycle 0 is an uncounted warm-up: a process's first rebuild also
	// faults in memory of its own — the rebuild buffers and, under -race,
	// the detector's shadow of them — a few hundred faults that have
	// nothing to do with the mapping.
	for cycle := 0; cycle <= 3; cycle++ {
		if err := arr.Fail(target); err != nil {
			t.Fatal(err)
		}
		before := minorFaults(t)
		if _, err := arr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		faults := minorFaults(t) - before
		t.Logf("cycle %d: %d minor faults rebuilding %d pages", cycle, faults, pages)
		if cycle > 0 && faults >= pages/8 {
			t.Errorf("cycle %d: Rebuild took %d minor faults for a %d-page disk, want < %d", cycle, faults, pages, pages/8)
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
