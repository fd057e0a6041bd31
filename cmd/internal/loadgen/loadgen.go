// Package loadgen is the one way the CLI tools generate load: a tool's
// `loadgen` flags become a one-phase pdl/scenario schedule, a tool's
// `scenario -f` loads a written one, and both run on the scenario
// engine against whatever target the tool has and print its report. No
// tool owns a worker loop, a seed-splitting rule or a percentile
// printer; what a tool prints is a smoke check, and quotable numbers
// come from the repository benchmark (bash bench/run.sh).
package loadgen

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/pdl/scenario"
)

// Flags is the load shape every tool's loadgen subcommand shares.
type Flags struct {
	Clients   int
	Ops       int64
	Duration  time.Duration
	Workload  string
	Theta     float64
	WriteFrac float64
	Seed      uint64
}

// AddFlags registers the shared load flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Clients, "clients", 16, "concurrent client goroutines")
	fs.Int64Var(&f.Ops, "ops", 50000, "total operations to run")
	fs.DurationVar(&f.Duration, "duration", 0, "run for this long instead of -ops")
	fs.StringVar(&f.Workload, "workload", "uniform", "address distribution: uniform|zipf")
	fs.Float64Var(&f.Theta, "theta", 0.9, "zipf skew exponent")
	fs.Float64Var(&f.WriteFrac, "write-frac", 0.3, "write fraction")
	fs.Uint64Var(&f.Seed, "seed", 1, "workload seed (one seed is one op stream on every target of equal capacity)")
	return f
}

// Scenario builds the one-phase schedule the flags describe, with the
// given events firing under it. The phase's empty SLO tolerates no op
// error, so a run that saw one exits nonzero. What it returns validates
// and encodes (scenario.EncodeSchedule): anything loadgen runs can be
// saved as a schedule file.
func (f *Flags) Scenario(events ...scenario.Event) (*scenario.Scenario, error) {
	load := scenario.Load{Workers: f.Clients, Ops: f.Ops, WriteFrac: f.WriteFrac}
	if f.Duration > 0 {
		load.Ops, load.Duration = 0, f.Duration
	}
	switch f.Workload {
	case "uniform":
	case "zipf":
		load.ZipfTheta = f.Theta
	default:
		return nil, fmt.Errorf("loadgen: unknown workload %q (uniform|zipf; pdlsim studies scans and mixes)", f.Workload)
	}
	sc := &scenario.Scenario{
		Name:   "loadgen",
		Seed:   f.Seed,
		Phases: []scenario.Phase{{Name: f.Workload, Load: load, Events: events, SLO: &scenario.SLO{}}},
	}
	return sc, sc.Validate()
}

// FailEvents is a `-fail` flag as schedule events: fail disk on shard
// once frac of the load's budget — its ops, or its duration when that is
// set — has passed. A negative shard or disk is the unset flag: no
// events.
func (f *Flags) FailEvents(shard, disk int, frac float64) []scenario.Event {
	if shard < 0 || disk < 0 {
		return nil
	}
	ev := scenario.Event{Action: scenario.ActFail, Shard: shard, Disk: disk}
	if f.Duration > 0 {
		ev.At = time.Duration(frac * float64(f.Duration))
	} else {
		ev.AtOps = int64(frac * float64(f.Ops))
	}
	return []scenario.Event{ev}
}

// ScheduleFlags registers a `scenario` subcommand's -f and -seed on fs;
// call the result after fs.Parse to read and validate the schedule file
// and apply the seed override.
func ScheduleFlags(fs *flag.FlagSet) func() (*scenario.Scenario, error) {
	file := fs.String("f", "", "schedule file (JSON, see pdl/scenario)")
	seed := fs.Uint64("seed", 0, "override the schedule's seed (0 = keep the file's)")
	return func() (*scenario.Scenario, error) {
		if *file == "" {
			return nil, fmt.Errorf("scenario: -f schedule.json required")
		}
		sc, err := scenario.ReadScheduleFile(*file)
		if err == nil && *seed != 0 {
			sc.Seed = *seed
		}
		return sc, err
	}
}

// Run runs sc against tgt and prints the report; the error is what the
// process should exit on (a violated SLO, a verify mismatch, or a
// scenario that could not run).
func Run(sc *scenario.Scenario, tgt scenario.Target) error {
	fmt.Printf("running scenario %q (%d phases, seed %d, %d B per op)\n", sc.Name, len(sc.Phases), sc.Seed, tgt.UnitSize())
	rep, err := scenario.Run(sc, tgt)
	if rep != nil {
		rep.WriteText(os.Stdout)
	}
	return err
}
