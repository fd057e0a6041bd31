//go:build !unix

package main

import "time"

// Without getrusage the process metrics read 0; the benchmark's
// reference platform is Linux.
func peakRSSMB() float64 { return 0 }

func cpuTime() time.Duration { return 0 }
