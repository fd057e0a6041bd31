// Package storetest exports the Backend conformance suite: the contract
// every pdl/store Backend must honor (see the Backend doc comment),
// pinned once and run against every implementation. New backends get the
// same guarantees for free:
//
//	func TestMyDisk(t *testing.T) {
//		storetest.TestBackend(t, func(t testing.TB, size int64) store.Backend {
//			d, err := NewMyDisk(filepath.Join(t.TempDir(), "d"), size)
//			if err != nil {
//				t.Fatal(err)
//			}
//			return d
//		})
//	}
//
// The factory returns a fresh, zeroed backend of the requested size; the
// suite closes it. CONTRIBUTING.md requires every new Backend to pass.
package storetest

import (
	"bytes"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"repro/pdl/store"
)

// Factory creates a fresh, zero-filled backend of size bytes. Use
// t.TempDir for file-backed implementations so cleanup is automatic;
// fail the test on construction errors.
type Factory func(t testing.TB, size int64) store.Backend

// TestBackend runs the conformance suite against backends produced by mk.
func TestBackend(t *testing.T, mk Factory) {
	t.Run("SizeAndZeroFill", func(t *testing.T) { testSizeAndZeroFill(t, mk) })
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, mk) })
	t.Run("ShortReadAtTail", func(t *testing.T) { testShortReadAtTail(t, mk) })
	t.Run("ReadPastEnd", func(t *testing.T) { testReadPastEnd(t, mk) })
	t.Run("WriteOutOfRange", func(t *testing.T) { testWriteOutOfRange(t, mk, suiteSize, 16) })
	t.Run("NegativeOffsets", func(t *testing.T) { testNegativeOffsets(t, mk) })
	t.Run("SizeStability", func(t *testing.T) { testSizeStability(t, mk) })
	t.Run("ConcurrentDisjoint", func(t *testing.T) { testConcurrentDisjoint(t, mk) })
	t.Run("Bulk", func(t *testing.T) {
		t.Run("Coherence", func(t *testing.T) { testBulkCoherence(t, mk) })
		t.Run("OutOfRange", func(t *testing.T) { testWriteOutOfRange(t, mk, bulkSize, 1<<20) })
		t.Run("ConcurrentDisjoint", func(t *testing.T) { testBulkConcurrent(t, mk) })
	})
}

const suiteSize = 1 << 12 // 4 KiB: small enough to sweep, big enough for edges

// bulkSize is the backend size of the Bulk cases: room for writes of a
// MiB and more, the length a rebuild writes in one call and past which a
// backend may switch write mechanism.
const bulkSize = 4 << 20

func pattern(b []byte, seed int) []byte {
	for i := range b {
		b[i] = byte(seed*131 + i*29 + 3)
	}
	return b
}

func testSizeAndZeroFill(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	if got := d.Size(); got != suiteSize {
		t.Fatalf("Size() = %d, want %d", got, suiteSize)
	}
	got := make([]byte, suiteSize)
	if n, err := d.ReadAt(got, 0); n != suiteSize || (err != nil && err != io.EOF) {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("fresh backend not zero-filled at %d: %#x", i, b)
		}
	}
}

func testRoundTrip(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	// Overlapping, unaligned writes; last writer wins.
	writes := []struct {
		off  int64
		n    int
		seed int
	}{
		{0, 64, 1}, {61, 7, 2}, {100, 1, 3}, {suiteSize - 33, 33, 4}, {500, 1000, 5}, {900, 200, 6},
	}
	mirror := make([]byte, suiteSize)
	for _, w := range writes {
		p := pattern(make([]byte, w.n), w.seed)
		if n, err := d.WriteAt(p, w.off); n != w.n || err != nil {
			t.Fatalf("WriteAt(%d, %d): n=%d err=%v", w.off, w.n, n, err)
		}
		copy(mirror[w.off:], p)
	}
	got := make([]byte, suiteSize)
	if n, err := d.ReadAt(got, 0); n != suiteSize || (err != nil && err != io.EOF) {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("contents diverge from mirror after overlapping writes")
	}
	// Unaligned partial read.
	sub := make([]byte, 123)
	if _, err := d.ReadAt(sub, 611); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, mirror[611:611+123]) {
		t.Fatal("partial read diverges from mirror")
	}
}

func testShortReadAtTail(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	want := pattern(make([]byte, 40), 7)
	if _, err := d.WriteAt(want, suiteSize-40); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	n, err := d.ReadAt(got, suiteSize-40)
	if n != 40 || err != io.EOF {
		t.Fatalf("tail read: n=%d err=%v, want 40, io.EOF", n, err)
	}
	if !bytes.Equal(got[:n], want) {
		t.Fatal("tail read returned wrong prefix")
	}
}

func testReadPastEnd(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	p := make([]byte, 8)
	if n, err := d.ReadAt(p, suiteSize); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(size): n=%d err=%v, want 0, io.EOF", n, err)
	}
	if n, err := d.ReadAt(p, suiteSize+100); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(size+100): n=%d err=%v, want 0, io.EOF", n, err)
	}
	if n, err := d.ReadAt(p, math.MaxInt64-4); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(MaxInt64-4): n=%d err=%v, want 0, io.EOF", n, err)
	}
}

// testWriteOutOfRange writes n bytes at offsets crossing a backend of
// size bytes.
func testWriteOutOfRange(t *testing.T, mk Factory, size int64, n int) {
	d := mk(t, size)
	defer d.Close()
	canary := pattern(make([]byte, n), 9)
	if _, err := d.WriteAt(canary, size-int64(n)); err != nil {
		t.Fatal(err)
	}
	// Straddling the end, at the end, past the end, and at an offset
	// whose off+len overflows int64 must all fail (not panic) without
	// writing anything, and grow neither Size nor, for a backend over a
	// file, the file (a pwrite past the end would).
	for _, off := range []int64{size - int64(n/2), size, size + int64(n/2), math.MaxInt64 - 8} {
		if w, err := d.WriteAt(make([]byte, n), off); err == nil {
			t.Fatalf("WriteAt(%d, %d) crossing size accepted (n=%d)", off, n, w)
		}
	}
	if got := d.Size(); got != size {
		t.Fatalf("Size() = %d after rejected writes, want %d", got, size)
	}
	if f, ok := d.(interface{ File() *os.File }); ok {
		st, err := f.File().Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != size {
			t.Fatalf("file is %d bytes after rejected writes, want %d", st.Size(), size)
		}
	}
	got := make([]byte, n)
	if _, err := d.ReadAt(got, size-int64(n)); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, canary) {
		t.Fatal("failed out-of-range write modified the tail")
	}
}

func testNegativeOffsets(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	p := make([]byte, 8)
	if _, err := d.ReadAt(p, -1); err == nil || err == io.EOF {
		t.Fatalf("ReadAt(-1) err=%v, want a real error", err)
	}
	if _, err := d.WriteAt(p, -1); err == nil {
		t.Fatal("WriteAt(-1) accepted")
	}
}

func testSizeStability(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	probes := func(tag string) {
		t.Helper()
		if got := d.Size(); got != suiteSize {
			t.Fatalf("%s: Size() = %d, want %d", tag, got, suiteSize)
		}
	}
	probes("fresh")
	if _, err := d.WriteAt(pattern(make([]byte, 256), 11), 0); err != nil {
		t.Fatal(err)
	}
	probes("after write")
	d.WriteAt(make([]byte, 64), suiteSize-8) // must fail; must not grow
	probes("after rejected write")
	d.ReadAt(make([]byte, 64), suiteSize+1)
	probes("after past-end read")
}

func testConcurrentDisjoint(t *testing.T, mk Factory) {
	d := mk(t, suiteSize)
	defer d.Close()
	const (
		lanes   = 8
		laneLen = suiteSize / lanes
		rounds  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			off := int64(lane * laneLen)
			buf := make([]byte, laneLen)
			got := make([]byte, laneLen)
			for r := 0; r < rounds; r++ {
				pattern(buf, lane*rounds+r)
				if _, err := d.WriteAt(buf, off); err != nil {
					errs <- err
					return
				}
				if _, err := d.ReadAt(got, off); err != nil && err != io.EOF {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("lane %d round %d: readback diverges", lane, r)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// testBulkCoherence interleaves writes of over a MiB with small writes
// inside their range, in both orders. A backend may write the two kinds
// by different mechanisms (MmapDisk copies small ones into its mapping
// and pwrites bulk ones), so every read, large or small, must see the
// last writer's bytes whichever mechanism wrote them.
func testBulkCoherence(t *testing.T, mk Factory) {
	d := mk(t, bulkSize)
	defer d.Close()
	const bulkOff, bulkLen = 3*4096 + 17, 2<<20 + 333 // unaligned at both ends
	mirror := make([]byte, bulkSize)
	write := func(off int64, n, seed int) {
		t.Helper()
		p := pattern(make([]byte, n), seed)
		if w, err := d.WriteAt(p, off); w != n || err != nil {
			t.Fatalf("WriteAt(%d, %d): n=%d err=%v", off, n, w, err)
		}
		copy(mirror[off:], p)
	}
	// small is the i-th small range: spread over the bulk range, 1 B to
	// 4 KiB long, at no particular alignment.
	small := func(i int) (int64, int) {
		return int64(bulkOff + i*32771%(bulkLen-4096)), 1 + i*577%4096
	}
	smalls := func(seed int) {
		for i := 0; i < 64; i++ {
			off, n := small(i)
			write(off, n, seed+i)
		}
	}
	read := func(tag string, off int64, n int) {
		t.Helper()
		got := make([]byte, n)
		if r, err := d.ReadAt(got, off); r != n || (err != nil && err != io.EOF) {
			t.Fatalf("%s: ReadAt(%d, %d): n=%d err=%v", tag, off, n, r, err)
		}
		if !bytes.Equal(got, mirror[off:off+int64(n)]) {
			t.Fatalf("%s: [%d,%d) diverges from the mirror", tag, off, off+int64(n))
		}
	}
	check := func(tag string) {
		t.Helper()
		read(tag, 0, bulkSize)
		for i := 0; i < 64; i++ {
			off, n := small(i)
			read(tag, off, n)
		}
	}
	smalls(100)
	check("small writes")
	write(bulkOff, bulkLen, 1)
	check("bulk write over small writes")
	smalls(200)
	check("small writes inside a bulk write")
	write(bulkOff, bulkLen, 2)
	check("bulk write over them")
}

// testBulkConcurrent is ConcurrentDisjoint with both write kinds at once:
// half the lanes rewrite their whole lane in one bulk write per round,
// the others scatter small writes over theirs, and every lane reads back
// intact.
func testBulkConcurrent(t *testing.T, mk Factory) {
	d := mk(t, bulkSize)
	defer d.Close()
	const (
		lanes   = 4
		laneLen = bulkSize / lanes
		rounds  = 8
	)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			base := int64(lane * laneLen)
			mirror := make([]byte, laneLen)
			got := make([]byte, laneLen)
			for r := 0; r < rounds; r++ {
				seed := lane*rounds + r
				if lane%2 == 0 {
					if _, err := d.WriteAt(pattern(mirror, seed), base); err != nil {
						t.Errorf("lane %d round %d: bulk write: %v", lane, r, err)
						return
					}
				} else {
					for i := 0; i < 32; i++ {
						off := (i*40961 + r*4099) % (laneLen - 4096)
						if _, err := d.WriteAt(pattern(mirror[off:off+4096], seed+i), base+int64(off)); err != nil {
							t.Errorf("lane %d round %d: small write: %v", lane, r, err)
							return
						}
					}
				}
				if _, err := d.ReadAt(got, base); err != nil && err != io.EOF {
					t.Errorf("lane %d round %d: read: %v", lane, r, err)
					return
				}
				if !bytes.Equal(got, mirror) {
					t.Errorf("lane %d round %d: readback diverges", lane, r)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
}
