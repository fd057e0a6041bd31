//go:build unix

package main

import (
	"runtime"
	"syscall"
	"time"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// peakRSSMB is the process's peak resident set in decimal MB.
func peakRSSMB() float64 {
	maxrss := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		return maxrss / 1e6 // bytes there, kilobytes on Linux
	}
	return maxrss * 1024 / 1e6
}

// cpuTime is the user+system CPU time the process has consumed.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
