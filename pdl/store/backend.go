package store

import (
	"fmt"
	"io"
	"os"
)

// Backend is one disk's byte storage. The Store issues ReadAt/WriteAt
// calls whose ranges it has already bounds-checked and serialized per
// parity stripe; a Backend must support concurrent calls on disjoint
// ranges (MemDisk, FileDisk, and MmapDisk all do).
//
// Every Backend honors the same contract, pinned by the exported
// conformance suite in repro/pdl/store/storetest (new implementations
// must pass it):
//
//   - Size is stable: it never changes over the backend's lifetime.
//   - ReadAt at or past Size returns (0, io.EOF); a read crossing Size
//     returns the available prefix and io.EOF.
//   - WriteAt never grows the disk: a write extending past Size fails
//     without writing anything.
//   - A ReadAt sees every write that returned before it started, short
//     or bulk alike, even where a backend writes the two differently.
//   - Negative offsets are errors.
type Backend interface {
	io.ReaderAt
	io.WriterAt

	// Size returns the backend's capacity in bytes.
	Size() int64

	// Close releases the backend's resources. The Store's Close calls it
	// on every disk.
	Close() error
}

// MemDisk is a Backend over an in-memory byte slab: the fastest backend
// and the one tests and benchmarks default to.
type MemDisk struct {
	b []byte
}

// NewMemDisk allocates a zeroed in-memory disk of size bytes.
func NewMemDisk(size int64) *MemDisk {
	if size < 0 {
		panic(fmt.Sprintf("store: NewMemDisk: negative size %d", size))
	}
	return &MemDisk{b: make([]byte, size)}
}

// ReadAt implements io.ReaderAt over the slab.
func (d *MemDisk) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: MemDisk.ReadAt: negative offset %d", off)
	}
	if off >= int64(len(d.b)) {
		return 0, io.EOF
	}
	n := copy(p, d.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt over the slab. Writes past the fixed
// size fail: a MemDisk does not grow.
func (d *MemDisk) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: MemDisk.WriteAt: negative offset %d", off)
	}
	// Overflow-safe: off+len(p) could wrap for offsets near MaxInt64.
	if off > int64(len(d.b)) || int64(len(p)) > int64(len(d.b))-off {
		return 0, fmt.Errorf("store: MemDisk.WriteAt: [%d,%d+%d) outside disk of %d bytes", off, off, len(p), len(d.b))
	}
	return copy(d.b[off:], p), nil
}

// Size returns the slab size in bytes.
func (d *MemDisk) Size() int64 { return int64(len(d.b)) }

// Close is a no-op.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a Backend over an *os.File using positioned I/O
// (ReadAt/WriteAt), so concurrent requests need no seek coordination.
type FileDisk struct {
	f    *os.File
	size int64
}

// CreateFileDisk creates (or truncates) a file of size bytes and wraps it
// as a disk backend.
func CreateFileDisk(path string, size int64) (*FileDisk, error) {
	if size < 0 {
		return nil, fmt.Errorf("store: CreateFileDisk: negative size %d", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: CreateFileDisk: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: CreateFileDisk: %w", err)
	}
	return &FileDisk{f: f, size: size}, nil
}

// OpenFileDisk opens an existing disk file; its size comes from Stat.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: OpenFileDisk: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: OpenFileDisk: %w", err)
	}
	return &FileDisk{f: f, size: st.Size()}, nil
}

// ReadAt implements io.ReaderAt on the file.
func (d *FileDisk) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: FileDisk.ReadAt: negative offset %d", off)
	}
	if off >= d.size {
		return 0, io.EOF
	}
	return d.f.ReadAt(p, off)
}

// WriteAt implements io.WriterAt on the file. Writes past the recorded
// size fail: a disk does not grow, even though the file could.
func (d *FileDisk) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: FileDisk.WriteAt: negative offset %d", off)
	}
	// Overflow-safe: off+len(p) could wrap for offsets near MaxInt64.
	if off > d.size || int64(len(p)) > d.size-off {
		return 0, fmt.Errorf("store: FileDisk.WriteAt: [%d,%d+%d) outside disk of %d bytes", off, off, len(p), d.size)
	}
	return d.f.WriteAt(p, off)
}

// Size returns the file size recorded at open time.
func (d *FileDisk) Size() int64 { return d.size }

// File returns the underlying file (e.g. for Sync).
func (d *FileDisk) File() *os.File { return d.f }

// Close closes the file.
func (d *FileDisk) Close() error { return d.f.Close() }
