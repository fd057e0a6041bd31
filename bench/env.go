package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is the header of every result file: enough to tell two
// records apart before comparing their numbers.
type environment struct {
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpu_model"`
	Geometry   string      `json:"geometry"`
	Workloads  []*workload `json:"workloads"`
}

func newEnvironment(cfg *config, ws []*workload) environment {
	return environment{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Geometry:   "G17: pdl.Build(17, 5, WithParityShards(m)), ring, 80 units/disk/copy, 4 KiB units",
		Workloads:  ws,
	}
}

// commit is the VCS revision the toolchain stamped into the binary;
// "unknown" when it was built outside a git checkout (as the driver's
// copies are).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
