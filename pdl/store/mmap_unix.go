//go:build linux || darwin

package store

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// MmapDisk is a Backend over a memory-mapped file: reads and unit-sized
// writes are plain memory copies against the shared mapping (no syscalls
// on the hot path, zero allocations), and the kernel's page cache carries
// the bytes back to the file. A write longer than bulkWrite — in the
// Store, only a rebuild's runs — goes through the file descriptor
// (pwrite) instead: a rebuild writes a disk Fail truncated, and a copy
// into those holes would take a page fault per page. Linux and macOS
// share one page cache between the mapping and the file, so reads
// through the mapping and Flush see both kinds of write. Flush forces
// dirty pages out; Close flushes, unmaps, and closes the file. Like the
// other backends it supports concurrent ReadAt/WriteAt on disjoint ranges.
//
// On platforms without mmap support the same type falls back to FileDisk
// semantics (positioned file I/O) so callers build unconditionally.
type MmapDisk struct {
	f    *os.File
	data []byte
}

// mmapSupported reports whether this build uses a real memory mapping
// (false on the FileDisk-fallback platforms).
const mmapSupported = true

// bulkWrite is the longest write WriteAt copies into the mapping; longer
// ones are a pwrite. Writing pages the mapping has resident and dirty, a
// copy is cheaper at every size; writing holes, pwrite is, because the
// copy faults on every page. Per write on 2-vCPU Xeon ext4 (copy vs
// pwrite, µs): dirty 0.26/0.75 at 4 KiB, 1.07/1.86 at 16 KiB, 4.2/6.4 at
// 64 KiB; holes 1.74/1.23, 7.3/2.9, 30.2/9.5. The risks balance at one
// 4 KiB unit, which therefore stays a copy; past 16 KiB a pwrite into
// holes saves more than five times what one into dirty pages can lose.
const bulkWrite = 16 << 10

// CreateMmapDisk creates (or truncates) a file of size bytes and maps it.
func CreateMmapDisk(path string, size int64) (*MmapDisk, error) {
	if size < 0 {
		return nil, fmt.Errorf("store: CreateMmapDisk: negative size %d", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: CreateMmapDisk: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: CreateMmapDisk: %w", err)
	}
	return mmapFile(f, size)
}

// OpenMmapDisk maps an existing disk file; its size comes from Stat.
func OpenMmapDisk(path string) (*MmapDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: OpenMmapDisk: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: OpenMmapDisk: %w", err)
	}
	return mmapFile(f, st.Size())
}

func mmapFile(f *os.File, size int64) (*MmapDisk, error) {
	if size == 0 {
		// mmap(2) rejects zero-length mappings; an empty disk needs none.
		return &MmapDisk{f: f}, nil
	}
	if size != int64(int(size)) {
		f.Close()
		return nil, fmt.Errorf("store: mmap: size %d overflows the address space", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: mmap %s: %w", f.Name(), err)
	}
	return &MmapDisk{f: f, data: data}, nil
}

// ReadAt implements io.ReaderAt over the mapping.
func (d *MmapDisk) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: MmapDisk.ReadAt: negative offset %d", off)
	}
	if off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt: a copy into the mapping, or a pwrite
// when p is longer than bulkWrite. Writes past the fixed size fail before
// either: neither the mapping nor the file grows.
func (d *MmapDisk) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: MmapDisk.WriteAt: negative offset %d", off)
	}
	// Overflow-safe: off+len(p) could wrap for offsets near MaxInt64.
	if off > int64(len(d.data)) || int64(len(p)) > int64(len(d.data))-off {
		return 0, fmt.Errorf("store: MmapDisk.WriteAt: [%d,%d+%d) outside disk of %d bytes", off, off, len(p), len(d.data))
	}
	if len(p) > bulkWrite {
		return d.f.WriteAt(p, off)
	}
	return copy(d.data[off:], p), nil
}

// Size returns the mapped length in bytes.
func (d *MmapDisk) Size() int64 { return int64(len(d.data)) }

// File returns the underlying file.
func (d *MmapDisk) File() *os.File { return d.f }

// Flush forces dirty pages of the mapping out to the file. On Linux and
// macOS the mapping shares the page cache with the file, so fsync covers
// pages dirtied through the mapping.
func (d *MmapDisk) Flush() error {
	if d.f == nil {
		return nil
	}
	return d.f.Sync()
}

// Close flushes, unmaps, and closes the file. A second Close is a no-op.
func (d *MmapDisk) Close() error {
	if d.f == nil {
		return nil
	}
	err := d.Flush()
	if d.data != nil {
		if merr := syscall.Munmap(d.data); err == nil {
			err = merr
		}
		d.data = nil
	}
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.f = nil
	return err
}
