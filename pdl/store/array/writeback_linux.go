//go:build !arm

package array

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <linux/fs.h>.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing the dirty pages of the
// file open on fd back and returns without waiting for them, so that a
// later fsync finds most of its work already done. The error is dropped:
// writeback is only a head start, and the fsync that follows reports any
// failure that matters.
func startWriteback(fd uintptr) {
	_ = syscall.SyncFileRange(int(fd), 0, 0, syncFileRangeWrite)
}
