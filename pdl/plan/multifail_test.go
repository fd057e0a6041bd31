package plan_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/pdl"
	"repro/pdl/plan"
)

// rs2Mapper builds the mapper for a two-parity layout.
func rs2Mapper(t *testing.T, v, k int) *pdl.Mapper {
	t.Helper()
	res, err := pdl.Build(v, k, pdl.WithParityShards(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stripeDisks resolves the stripe of a logical address into the disks
// holding its data and parity shards.
func stripeDisks(t *testing.T, m *pdl.Mapper, logical int) (stripe int, dataDisks, parityDisks []int) {
	t.Helper()
	stripe, _, err := m.StripeOf(logical)
	if err != nil {
		t.Fatal(err)
	}
	units, err := m.AppendStripeUnits(nil, stripe)
	if err != nil {
		t.Fatal(err)
	}
	k := len(units) - m.ParityShards()
	for _, u := range units {
		if m.ShardAt(u) >= k {
			parityDisks = append(parityDisks, u.Disk)
		} else {
			dataDisks = append(dataDisks, u.Disk)
		}
	}
	return stripe, dataDisks, parityDisks
}

// TestReadMTwoFailures pins the degraded-read plan with two disks down:
// the plan must expose the stripe's failed shard mask and reconstruction
// target so executors can run the code's recovery arithmetic, and read
// only surviving units.
func TestReadMTwoFailures(t *testing.T) {
	m := rs2Mapper(t, 9, 4)
	pln := plan.NewPlanner(m)
	_, home, err := m.StripeOf(0)
	if err != nil {
		t.Fatal(err)
	}
	_, dataDisks, parityDisks := stripeDisks(t, m, 0)

	// Fail the home disk plus one parity disk of the same stripe.
	failed := []int{home.Disk, parityDisks[0]}
	if failed[0] > failed[1] {
		failed[0], failed[1] = failed[1], failed[0]
	}
	var p plan.Plan
	if err := pln.ReadM(0, failed, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.DegradedRead {
		t.Fatalf("kind %v, want DegradedRead", p.Kind)
	}
	homeShard := m.ShardAt(home)
	if p.TargetShard != homeShard {
		t.Errorf("TargetShard = %d, want home shard %d", p.TargetShard, homeShard)
	}
	if p.DataShards != len(dataDisks) {
		t.Errorf("DataShards = %d, want %d", p.DataShards, len(dataDisks))
	}
	if len(p.Missing) != 2 {
		t.Fatalf("Missing = %v, want 2 entries", p.Missing)
	}
	if p.Missing[0] >= p.Missing[1] {
		t.Errorf("Missing %v not sorted", p.Missing)
	}
	foundTarget := false
	for _, sh := range p.Missing {
		if sh == homeShard {
			foundTarget = true
		}
	}
	if !foundTarget {
		t.Errorf("Missing %v lacks the target shard %d", p.Missing, homeShard)
	}
	for _, st := range p.Steps {
		if st.Write {
			t.Errorf("degraded read plans a write: %+v", st)
		}
		for _, f := range failed {
			if st.Disk == f {
				t.Errorf("degraded read touches failed disk %d: %+v", f, st)
			}
		}
	}

	// Failing more disks than the code's parity shards in one stripe is
	// only detectable at execution (the plan layer is code-agnostic about
	// which shards a code can rebuild), but the failed-set validation
	// itself must reject unsorted and duplicate sets.
	if err := pln.ReadM(0, []int{3, 1}, &p); err == nil {
		t.Error("unsorted failed set accepted")
	}
	if err := pln.ReadM(0, []int{1, 1}, &p); err == nil {
		t.Error("duplicate failed set accepted")
	}
}

// TestWriteMTwoFailureShapes pins the write-plan shapes unique to
// multi-parity layouts: a SmallWrite updates EVERY surviving parity
// unit; losing one data peer puts the home write into DegradedWrite
// (reads all survivors including parity); losing both parity disks of
// the stripe degenerates to DataOnlyWrite.
func TestWriteMTwoFailureShapes(t *testing.T) {
	m := rs2Mapper(t, 9, 4)
	pln := plan.NewPlanner(m)
	_, home, err := m.StripeOf(0)
	if err != nil {
		t.Fatal(err)
	}
	_, dataDisks, parityDisks := stripeDisks(t, m, 0)
	k := len(dataDisks)

	// Healthy SmallWrite: reads home + both parity units, writes them back.
	var p plan.Plan
	if err := pln.WriteM(0, nil, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.SmallWrite || p.Reads() != 3 || p.Writes() != 3 {
		t.Fatalf("healthy small write: kind %v reads %d writes %d, want SmallWrite 3 3", p.Kind, p.Reads(), p.Writes())
	}
	if p.DataShards != k {
		t.Errorf("DataShards = %d, want %d", p.DataShards, k)
	}
	parityWrites := 0
	for _, st := range p.Steps {
		if st.Write && st.Parity {
			parityWrites++
		}
	}
	if parityWrites != 2 {
		t.Errorf("small write updates %d parity units, want 2", parityWrites)
	}

	// One parity disk down: still a SmallWrite, now updating only the
	// surviving parity unit.
	if err := pln.WriteM(0, []int{parityDisks[0]}, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.SmallWrite || p.Writes() != 2 {
		t.Fatalf("one-parity-down small write: kind %v writes %d", p.Kind, p.Writes())
	}

	// Home plus a data peer down: DegradedWrite — reconstruct the old
	// home from ALL survivors (parity included), then delta-update the
	// surviving parity units.
	peer := -1
	for _, d := range dataDisks {
		if d != home.Disk {
			peer = d
			break
		}
	}
	failed := []int{home.Disk, peer}
	if failed[0] > failed[1] {
		failed[0], failed[1] = failed[1], failed[0]
	}
	if err := pln.WriteM(0, failed, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.DegradedWrite {
		t.Fatalf("home+peer down: kind %v, want DegradedWrite", p.Kind)
	}
	if p.TargetShard != m.ShardAt(home) || len(p.Missing) != 2 {
		t.Errorf("DegradedWrite TargetShard=%d Missing=%v", p.TargetShard, p.Missing)
	}
	if p.Writes() != 2 {
		t.Errorf("DegradedWrite writes %d units, want both surviving parity units", p.Writes())
	}
	readsParity := 0
	for _, st := range p.Steps {
		if !st.Write && st.Parity {
			readsParity++
		}
		for _, f := range failed {
			if st.Disk == f {
				t.Errorf("DegradedWrite touches failed disk %d: %+v", f, st)
			}
		}
	}
	if readsParity != 2 {
		t.Errorf("DegradedWrite reads %d parity units, want 2 (old values feed the delta update)", readsParity)
	}

	// Both parity disks down: nothing to maintain — DataOnlyWrite.
	failed = []int{parityDisks[0], parityDisks[1]}
	if failed[0] > failed[1] {
		failed[0], failed[1] = failed[1], failed[0]
	}
	if err := pln.WriteM(0, failed, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.DataOnlyWrite || p.Writes() != 1 || p.Reads() != 0 {
		t.Fatalf("both parity down: kind %v reads %d writes %d, want DataOnlyWrite 0 1", p.Kind, p.Reads(), p.Writes())
	}
}

// TestRebuildMTwoFailures pins the rebuild schedule with a second disk
// down: per-stripe plans must carry the full missing-shard mask and only
// read surviving units.
func TestRebuildMTwoFailures(t *testing.T) {
	m := rs2Mapper(t, 9, 4)
	pln := plan.NewPlanner(m)
	rb, err := pln.RebuildM(0, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Plans) == 0 {
		t.Fatal("no rebuild plans for disk 0")
	}
	for i := range rb.Plans {
		p := &rb.Plans[i]
		if p.Kind != plan.RebuildStripe {
			t.Fatalf("plan %d kind %v", i, p.Kind)
		}
		if p.Target.Disk != 0 {
			t.Errorf("plan %d target on disk %d, want 0", i, p.Target.Disk)
		}
		if p.TargetShard < 0 || p.DataShards < 1 {
			t.Errorf("plan %d missing shard metadata: target %d k %d", i, p.TargetShard, p.DataShards)
		}
		for _, st := range p.Steps {
			if st.Disk == 0 || st.Disk == 4 {
				t.Errorf("plan %d reads failed disk %d", i, st.Disk)
			}
		}
		for j := 1; j < len(p.Missing); j++ {
			if p.Missing[j-1] >= p.Missing[j] {
				t.Errorf("plan %d Missing %v not sorted", i, p.Missing)
			}
		}
	}
	// Balance and MaxSurvivorReads range over survivors only: disk 4 is
	// down too, so its zero reads are not the minimum.
	lo, hi := int64(-1), int64(-1)
	for d, n := range rb.Reads {
		if d == 0 || d == 4 {
			continue
		}
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if min, max := rb.Balance(); min != lo || max != hi || lo == 0 {
		t.Errorf("Balance() = (%d,%d), want survivor range (%d,%d) > 0 of reads %v", min, max, lo, hi, rb.Reads)
	}
	if got := rb.MaxSurvivorReads(); got != hi {
		t.Errorf("MaxSurvivorReads() = %d, want %d", got, hi)
	}
	// The rebuild target must be in the failed set.
	if _, err := pln.RebuildM(2, []int{0, 4}); err == nil {
		t.Error("RebuildM with target outside the failed set accepted")
	}
}

// TestRebuildStripeMatchesRebuildM pins that there is one rebuild-plan
// compiler: walking the stripes with RebuildStripe into ONE reused Plan
// yields, stripe by stripe, exactly what RebuildM materialises — same
// stripes in the same order, same Steps, Missing, Target and shard
// metadata, and the same per-disk read tallies — with one disk down and
// with two.
func TestRebuildStripeMatchesRebuildM(t *testing.T) {
	m := rs2Mapper(t, 17, 5)
	pln := plan.NewPlanner(m)
	for _, failed := range [][]int{{3}, {0, 1}, {1, 16}} {
		for _, target := range failed {
			rb, err := pln.RebuildM(target, failed)
			if err != nil {
				t.Fatal(err)
			}
			reads := make([]int64, m.Disks())
			var p plan.Plan // reused: stale state must not leak between stripes
			next := 0
			for stripe := 0; stripe < m.Stripes(); stripe++ {
				crosses, err := pln.RebuildStripe(stripe, target, failed, &p)
				if err != nil {
					t.Fatal(err)
				}
				if !crosses {
					continue
				}
				if next >= len(rb.Plans) {
					t.Fatalf("failed %v target %d: stripe %d streamed, RebuildM has only %d plans", failed, target, stripe, len(rb.Plans))
				}
				want := &rb.Plans[next]
				next++
				if p.Kind != want.Kind || p.Logical != want.Logical || p.Stripe != want.Stripe ||
					p.Target != want.Target || p.TargetShard != want.TargetShard || p.DataShards != want.DataShards ||
					!reflect.DeepEqual(p.Missing, want.Missing) || !reflect.DeepEqual(p.Steps, want.Steps) {
					t.Fatalf("failed %v target %d stripe %d:\nstreamed     %+v\nmaterialised %+v", failed, target, stripe, p, *want)
				}
				for _, st := range p.Steps {
					reads[st.Disk]++
				}
			}
			if next != len(rb.Plans) {
				t.Errorf("failed %v target %d: %d stripes streamed, RebuildM has %d plans", failed, target, next, len(rb.Plans))
			}
			if !reflect.DeepEqual(reads, rb.Reads) {
				t.Errorf("failed %v target %d: streamed read tallies %v, RebuildM %v", failed, target, reads, rb.Reads)
			}
		}
	}
	// The same argument checks guard the streamed compiler.
	var p plan.Plan
	if _, err := pln.RebuildStripe(0, 2, []int{0, 4}, &p); err == nil {
		t.Error("RebuildStripe with target outside the failed set accepted")
	}
	if _, err := pln.RebuildStripe(m.Stripes(), 0, []int{0}, &p); err == nil {
		t.Error("RebuildStripe past the last stripe accepted")
	}
}

// TestPlanMetadataEveryKind pins the reconstruction metadata of every
// plan kind on rs m = 2 (2 data + 2 parity shards per stripe): Missing
// is filled only by the kinds that resolve the whole stripe, so a
// SmallWrite with a parity disk down and a DataOnlyWrite with both down
// carry none.
func TestPlanMetadataEveryKind(t *testing.T) {
	m := rs2Mapper(t, 9, 4)
	pln := plan.NewPlanner(m)
	stripe, home, err := m.StripeOf(0)
	if err != nil {
		t.Fatal(err)
	}
	units, err := m.AppendStripeUnits(nil, stripe)
	if err != nil {
		t.Fatal(err)
	}
	k := len(units) - m.ParityShards()
	if k != 2 {
		t.Fatalf("stripe has %d data shards, want 2", k)
	}
	disk := make([]int, len(units)) // shard index -> disk
	for _, u := range units {
		disk[m.ShardAt(u)] = u.Disk
	}
	hs := m.ShardAt(home)
	peer := 1 - hs
	set := func(shards ...int) []int {
		var ds []int
		for _, sh := range shards {
			ds = append(ds, disk[sh])
		}
		slices.Sort(ds)
		return ds
	}
	sorted := func(shards ...int) []int { slices.Sort(shards); return shards }
	compile := map[string]func(failed []int, p *plan.Plan) error{
		"read":  func(f []int, p *plan.Plan) error { return pln.ReadM(0, f, p) },
		"write": func(f []int, p *plan.Plan) error { return pln.WriteM(0, f, p) },
		"full":  func(f []int, p *plan.Plan) error { return pln.FullStripeWriteM(0, f, p) },
		"rebuild": func(f []int, p *plan.Plan) error {
			_, err := pln.RebuildStripe(stripe, home.Disk, f, p)
			return err
		},
	}
	for _, c := range []struct {
		op          string
		failed      []int
		kind        plan.Kind
		missing     []int
		dataShards  int
		targetShard int
	}{
		{"read", nil, plan.Read, nil, 0, -1},
		{"read", set(peer, k), plan.Read, nil, 0, -1},
		{"read", set(hs), plan.DegradedRead, []int{hs}, k, hs},
		{"read", set(hs, k+1), plan.DegradedRead, []int{hs, k + 1}, k, hs},
		{"write", nil, plan.SmallWrite, nil, k, -1},
		{"write", set(k), plan.SmallWrite, nil, k, -1},
		{"write", set(peer), plan.SmallWrite, nil, k, -1},
		{"write", set(k, k+1), plan.DataOnlyWrite, nil, k, k},
		{"write", set(hs), plan.ReconstructWrite, []int{hs}, k, hs},
		{"write", set(hs, k), plan.ReconstructWrite, []int{hs, k}, k, hs},
		{"write", set(hs, peer), plan.DegradedWrite, []int{0, 1}, k, hs},
		{"full", nil, plan.FullStripeWrite, nil, k, -1},
		{"full", set(peer, k+1), plan.FullStripeWrite, sorted(peer, k+1), k, -1},
		{"rebuild", set(hs), plan.RebuildStripe, []int{hs}, k, hs},
		{"rebuild", set(hs, k), plan.RebuildStripe, []int{hs, k}, k, hs},
	} {
		var p plan.Plan
		if err := compile[c.op](c.failed, &p); err != nil {
			t.Fatalf("%s failed %v: %v", c.op, c.failed, err)
		}
		if p.Kind != c.kind || !slices.Equal(p.Missing, c.missing) || p.DataShards != c.dataShards || p.TargetShard != c.targetShard {
			t.Errorf("%s failed %v: kind %v Missing %v DataShards %d TargetShard %d, want %v %v %d %d",
				c.op, c.failed, p.Kind, p.Missing, p.DataShards, p.TargetShard, c.kind, c.missing, c.dataShards, c.targetShard)
		}
	}
}
