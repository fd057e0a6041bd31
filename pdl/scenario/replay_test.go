package scenario_test

import (
	"bytes"
	"testing"

	"repro/pdl"
	"repro/pdl/scenario"
	"repro/pdl/serve"
	"repro/pdl/sim"
	"repro/pdl/store"
)

// TestReplayTraceRoundTrip records a scenario's request stream through
// Frontend.RecordTrace (foreground phase ops plus a background load),
// decodes it, replays it against a bare store, and checks the replay
// report carries the recording's op count and class split.
func TestReplayTraceRoundTrip(t *testing.T) {
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, res.Layout.Size, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := serve.New(s, serve.Config{QueueDepth: 16})
	t.Cleanup(func() {
		f.Close()
		s.Close()
	})
	var raw bytes.Buffer
	tw, err := sim.NewTraceWriter(&raw, s.UnitSize())
	if err != nil {
		t.Fatal(err)
	}
	f.RecordTrace(tw)
	sc := &scenario.Scenario{
		Name:       "record",
		Seed:       3,
		Background: &scenario.Load{Workers: 1, WriteFrac: 0.5},
		Phases:     []scenario.Phase{{Name: "only", Load: scenario.Load{Workers: 2, Ops: 300, WriteFrac: 0.4}}},
	}
	if _, err := scenario.Run(sc, &scenario.FrontendTarget{F: f}); err != nil {
		t.Fatal(err)
	}
	f.RecordTrace(nil)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.DecodeTrace(raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var fg, bg int64
	for _, op := range tr.Ops {
		if op.Background {
			bg++
		} else {
			fg++
		}
	}
	if fg != 300 || bg == 0 {
		t.Fatalf("recorded %d foreground and %d background ops, want 300 and some", fg, bg)
	}

	rep, err := scenario.ReplayTrace(newStoreTarget(t, 32), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != "store" || rep.UnitSize != 32 || len(rep.Phases) != 1 {
		t.Fatalf("replay report = %+v, want one phase against the 32 B store target", rep)
	}
	ph := rep.Phases[0]
	if ph.Ops != fg+bg || ph.Errors != 0 || ph.Took <= 0 {
		t.Errorf("replayed %d ops (%d errors) in %v, want %d clean ops", ph.Ops, ph.Errors, ph.Took, fg+bg)
	}
	if ph.Foreground.Count != fg || ph.Background.Count != bg {
		t.Errorf("class split = %d foreground / %d background, recorded %d / %d",
			ph.Foreground.Count, ph.Background.Count, fg, bg)
	}

	if _, err := scenario.ReplayTrace(emptyTarget{capacity: 0, unit: 32}, tr, 0); err == nil {
		t.Error("replay against a target with no capacity: no error")
	}
}
