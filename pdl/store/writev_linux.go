package store

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// writev implements vectorWriter on the file: one pwritev.
func (d *FileDisk) writev(bufs [][]byte, off int64) error {
	if _, err := checkRun("FileDisk.writev", bufs, off, d.size); err != nil {
		return err
	}
	return pwritev(d.f, bufs, off)
}

// writev implements vectorWriter as WriteAt does a single buffer: one
// pwritev when bufs are longer than bulkWrite together, copies into the
// mapping otherwise.
func (d *MmapDisk) writev(bufs [][]byte, off int64) error {
	n, err := checkRun("MmapDisk.writev", bufs, off, int64(len(d.data)))
	if err != nil {
		return err
	}
	if n > bulkWrite {
		return pwritev(d.f, bufs, off)
	}
	for _, p := range bufs {
		off += int64(copy(d.data[off:], p))
	}
	return nil
}

// checkRun returns the length of a run of bufs written at off, failing
// it, as WriteAt does, unless it lies inside a disk of size bytes.
func checkRun(op string, bufs [][]byte, off, size int64) (int64, error) {
	var n int64
	for _, p := range bufs {
		n += int64(len(p))
	}
	// Overflow-safe: off+n could wrap for offsets near MaxInt64.
	if off < 0 || off > size || n > size-off {
		return n, fmt.Errorf("store: %s: [%d,%d+%d) outside disk of %d bytes", op, off, off, n, size)
	}
	return n, nil
}

// pwritev writes bufs to f back to back from off with pwritev(2): one
// call for up to rebuildChunk buffers, which covers a full-stripe
// window's run on one disk, and more only for longer lists or short
// writes. The offset goes in two words (pos_l, pos_h), so that 386 and
// arm see all 64 bits of it.
func pwritev(f *os.File, bufs [][]byte, off int64) error {
	var iov [rebuildChunk]syscall.Iovec
	skip := 0 // bytes of bufs[0] already written
	for len(bufs) > 0 {
		n := 0
		for i := 0; i < len(bufs) && n < len(iov); i++ {
			p := bufs[i]
			if i == 0 {
				p = p[skip:]
			}
			if len(p) == 0 {
				continue
			}
			iov[n].Base = &p[0]
			iov[n].SetLen(len(p))
			n++
		}
		if n == 0 {
			return nil
		}
		w, _, e := syscall.Syscall6(syscall.SYS_PWRITEV, f.Fd(), uintptr(unsafe.Pointer(&iov[0])), uintptr(n), uintptr(off), uintptr(off>>32), 0)
		runtime.KeepAlive(f)
		switch {
		case e == syscall.EINTR:
			continue
		case e != 0:
			return &os.PathError{Op: "pwritev", Path: f.Name(), Err: e}
		case w == 0:
			return &os.PathError{Op: "pwritev", Path: f.Name(), Err: io.ErrShortWrite}
		}
		off += int64(w)
		for left := int(w); left > 0; {
			if r := len(bufs[0]) - skip; left >= r {
				left -= r
				bufs, skip = bufs[1:], 0
			} else {
				skip += left
				left = 0
			}
		}
	}
	return nil
}
