package store

import (
	"errors"
	"sync/atomic"
	"unsafe"
)

// HelperChunks exposes, to the package's external tests only, how many
// chunks of stripes rebuild helpers (every worker but the first) have
// claimed over the store's life.
func (s *Store) HelperChunks() int64 { return s.helperChunks.Load() }

// RebuildChunk is the number of consecutive stripes per claim.
const RebuildChunk = rebuildChunk

// RebuildIdleWait is how long the store must go without a foreground op
// before a stood-down rebuild helper rejoins.
const RebuildIdleWait = rebuildIdleWait

// SlabAddr is the address of d's first byte, for tests that find its
// memory in /proc/self/maps and /proc/self/smaps.
func SlabAddr(d *MemDisk) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(d.b))) }

// WriteRun writes bufs to b back to back from off, as a window writes
// one disk's run: buffers adjacent in memory merged, then in one
// vectored write where b has one.
func WriteRun(b Backend, bufs [][]byte, off int64) error { return writeRun(b, bufs, off) }

// VecDisk gives a Backend the vectored write FileDisk and MmapDisk have
// on Linux, counting its calls in Calls. Once FailAfter calls have gone through (0:
// never), every later call fails with ErrVecDisk and writes nothing.
type VecDisk struct {
	Backend
	Calls     atomic.Int64
	FailAfter int64
}

// ErrVecDisk is what a VecDisk past its FailAfter returns.
var ErrVecDisk = errors.New("VecDisk: injected write failure")

func (d *VecDisk) writev(bufs [][]byte, off int64) error {
	if n := d.Calls.Add(1); d.FailAfter > 0 && n > d.FailAfter {
		return ErrVecDisk
	}
	return writeRun(d.Backend, bufs, off)
}
