//go:build !linux || arm

package array

// startWriteback is a no-op where the syscall package offers no
// sync_file_range (every platform but Linux, and linux/arm): the closing
// fsync then does all of the writeback itself.
func startWriteback(uintptr) {}
