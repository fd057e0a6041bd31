//go:build linux

package store

import (
	"math"
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page with 4 KiB base pages
// (x86 and arm64 alike), the unit in which MADV_HUGEPAGE memory faults in.
const hugePage = 2 << 20

// mapSlab returns a size-byte slab outside the Go heap, and the function
// that unmaps it. The slab is the 2 MiB-aligned window of an anonymous
// mapping one huge page longer, advised MADV_HUGEPAGE, so the kernel can
// back it a huge page at a time: one fault and one TLB entry per 2 MiB,
// and no zeroing by the Go runtime (anonymous memory is already zero).
// The slack either side of the window is never touched, so never
// resident. Below one huge page, or when the kernel refuses the mapping,
// mapSlab returns nil and the caller allocates on the heap.
func mapSlab(size int64) ([]byte, func() error) {
	if size < hugePage || size > math.MaxInt-hugePage {
		return nil, nil
	}
	m, err := syscall.Mmap(-1, 0, int(size)+hugePage, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	lo := int(-uintptr(unsafe.Pointer(&m[0])) & (hugePage - 1))
	b := m[lo : lo+int(size) : lo+int(size)]
	// The advice only speeds the slab up: where THP is off or not built
	// in, it is served a 4 KiB page at a time.
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	return b, func() error { return syscall.Munmap(m) }
}
