// Package units fixes the throughput-reporting convention shared by the
// CLI tools and the repository benchmark (bench/): decimal (SI) megabytes,
// 1 MB = 1e6 bytes — the same convention `go test -bench` uses for its
// MB/s column, so tool output and benchmark records compare directly.
// (Binary mebibytes, 1 MiB = 1048576 bytes, are NOT used anywhere.)
package units

import (
	"fmt"
	"time"
)

// BytesPerMB is one decimal megabyte.
const BytesPerMB = 1e6

// MBPerSec returns the decimal-MB/s rate of moving n bytes in elapsed.
// It returns 0 for a non-positive elapsed (no meaningful rate).
func MBPerSec(n int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / BytesPerMB / elapsed.Seconds()
}

// FormatMBPerSec renders a rate for tool output, e.g. "324.4 MB/s".
func FormatMBPerSec(n int64, elapsed time.Duration) string {
	return fmt.Sprintf("%.1f MB/s", MBPerSec(n, elapsed))
}
