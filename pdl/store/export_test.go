package store

import "unsafe"

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
