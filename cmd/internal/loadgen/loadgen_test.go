package loadgen

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/pdl"
	"repro/pdl/scenario"
	"repro/pdl/store"
)

// parse runs args through the shared flag set, as a tool's loadgen does.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlagsScenario pins the flags → schedule mapping, and that every
// schedule loadgen builds validates and survives the schedule file
// format unchanged.
func TestFlagsScenario(t *testing.T) {
	fail := func(f *Flags) []scenario.Event { return f.FailEvents(2, 0, 1.0/3) }
	tests := []struct {
		name   string
		args   []string
		events func(*Flags) []scenario.Event
		want   scenario.Phase
	}{
		{
			name: "defaults",
			want: scenario.Phase{Name: "uniform", Load: scenario.Load{Workers: 16, Ops: 50000, WriteFrac: 0.3}},
		},
		{
			name: "duration beats ops",
			args: []string{"-ops", "7", "-duration", "2s", "-clients", "3", "-write-frac", "1"},
			want: scenario.Phase{Name: "uniform", Load: scenario.Load{Workers: 3, Duration: 2 * time.Second, WriteFrac: 1}},
		},
		{
			name: "zipf sets theta",
			args: []string{"-workload", "zipf", "-theta", "1.2", "-ops", "100"},
			want: scenario.Phase{Name: "zipf", Load: scenario.Load{Workers: 16, Ops: 100, WriteFrac: 0.3, ZipfTheta: 1.2}},
		},
		{
			name:   "fail a third into an ops budget",
			args:   []string{"-ops", "900"},
			events: fail,
			want: scenario.Phase{
				Name:   "uniform",
				Load:   scenario.Load{Workers: 16, Ops: 900, WriteFrac: 0.3},
				Events: []scenario.Event{{Action: scenario.ActFail, Shard: 2, AtOps: 300}},
			},
		},
		{
			name:   "fail a third into a duration budget",
			args:   []string{"-duration", "3s"},
			events: fail,
			want: scenario.Phase{
				Name:   "uniform",
				Load:   scenario.Load{Workers: 16, Duration: 3 * time.Second, WriteFrac: 0.3},
				Events: []scenario.Event{{Action: scenario.ActFail, Shard: 2, At: time.Second}},
			},
		},
		{
			name:   "fail flag unset",
			args:   []string{"-ops", "900"},
			events: func(f *Flags) []scenario.Event { return f.FailEvents(0, -1, 0) },
			want:   scenario.Phase{Name: "uniform", Load: scenario.Load{Workers: 16, Ops: 900, WriteFrac: 0.3}},
		},
		{
			name:   "fail as the load starts",
			args:   []string{"-ops", "900"},
			events: func(f *Flags) []scenario.Event { return f.FailEvents(0, 3, 0) },
			want: scenario.Phase{
				Name:   "uniform",
				Load:   scenario.Load{Workers: 16, Ops: 900, WriteFrac: 0.3},
				Events: []scenario.Event{{Action: scenario.ActFail, Disk: 3}},
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, append(tc.args, "-seed", "9")...)
			var events []scenario.Event
			if tc.events != nil {
				events = tc.events(f)
			}
			sc, err := f.Scenario(events...)
			if err != nil {
				t.Fatal(err)
			}
			tc.want.SLO = &scenario.SLO{} // no op error tolerated
			want := &scenario.Scenario{Name: "loadgen", Seed: 9, Phases: []scenario.Phase{tc.want}}
			if !reflect.DeepEqual(sc, want) {
				t.Fatalf("Scenario() = %+v\nwant %+v", sc, want)
			}
			b, err := scenario.EncodeSchedule(sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := scenario.DecodeSchedule(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, sc) {
				t.Errorf("schedule round trip changed the scenario:\n%s\ngot %+v\nwant %+v", b, back, sc)
			}
		})
	}

	for _, args := range [][]string{
		{"-workload", "mix"}, {"-workload", "sequential"},
	} {
		if _, err := parse(t, args...).Scenario(); err == nil || !strings.Contains(err.Error(), "pdlsim") {
			t.Errorf("%v: err = %v, want one pointing at pdlsim", args, err)
		}
	}
	for _, args := range [][]string{
		{"-clients", "0"}, {"-write-frac", "1.5"}, {"-ops", "0"}, {"-workload", "zipf", "-theta", "9"},
	} {
		if _, err := parse(t, args...).Scenario(); err == nil {
			t.Errorf("%v: built a scenario, want a validation error", args)
		}
	}
}

// TestFewerOpsThanClients pins the bug the hand-rolled loops had: they
// split -ops by integer division across clients, so 10 ops over 16
// clients ran nothing and exited 0. The engine's shared budget runs
// exactly the ops asked for.
func TestFewerOpsThanClients(t *testing.T) {
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := (&Flags{Ops: 10, Clients: 16, Workload: "uniform", WriteFrac: 0.5, Seed: 1}).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(sc, &scenario.StoreTarget{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Phases[0]; got.Ops != 10 || got.Errors != 0 || got.Foreground.Count != 10 {
		t.Errorf("ran %d ops (%d errors, %d timed), want exactly 10 clean ops", got.Ops, got.Errors, got.Foreground.Count)
	}
}
