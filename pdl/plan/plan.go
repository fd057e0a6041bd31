// Package plan compiles logical disk-array operations into explicit
// physical I/O plans over a pdl.Mapper: which units to read, which to
// write, and in what order. A Plan is the unit of work a serving layer or
// simulator executes — the request logic of parity declustering (degraded
// reads over survivor XOR sets, read-modify-write parity updates, the
// Condition 5 large-write optimization, and per-stripe rebuild schedules)
// lives here once, instead of being re-implemented by every engine.
//
// Plans are flat step lists with barrier stages: every step in stage s may
// start only after all steps in stage s-1 finished (a small write's two
// writes wait for its two reads). Compilation is allocation-free in steady
// state: a Planner reuses its scratch buffers and appends steps into the
// caller's Plan, so a serving loop that recycles one Plan performs zero
// allocations per request.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/pdl"
	"repro/pdl/layout"
)

// Kind classifies a compiled plan.
type Kind int

const (
	// Read is a healthy one-unit read.
	Read Kind = iota

	// DegradedRead reads every surviving unit of the stripe (the XOR
	// survivor set) because the home unit's disk is down.
	DegradedRead

	// SmallWrite is the Figure 1 read-modify-write: read old data and old
	// parity, then write new data and new parity.
	SmallWrite

	// ReconstructWrite handles a small write whose data disk is down:
	// read the stripe's surviving data units, then write parity only.
	ReconstructWrite

	// DataOnlyWrite handles a small write whose parity disk is down:
	// write the data unit, nothing else to maintain.
	DataOnlyWrite

	// FullStripeWrite is the Condition 5 large-write optimization: parity
	// comes from the new data alone, so the whole stripe is written with
	// no pre-reads.
	FullStripeWrite

	// RebuildStripe reads every surviving unit of one stripe crossing a
	// failed disk, reconstructing that stripe's lost unit.
	RebuildStripe

	// DegradedWrite handles a small write whose data disk is down while
	// at least one more data unit of the same stripe is also down (only
	// possible with multi-parity codes): read every surviving unit —
	// data and parity — so the old value of the lost home unit can be
	// reconstructed, then apply the read-modify-write delta to every
	// surviving parity unit.
	DegradedWrite
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case DegradedRead:
		return "degraded-read"
	case SmallWrite:
		return "small-write"
	case ReconstructWrite:
		return "reconstruct-write"
	case DataOnlyWrite:
		return "data-only-write"
	case FullStripeWrite:
		return "full-stripe-write"
	case RebuildStripe:
		return "rebuild-stripe"
	case DegradedWrite:
		return "degraded-write"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Step is one physical unit operation within a plan.
type Step struct {
	// Unit is the physical (disk, offset) position touched.
	layout.Unit

	// Write distinguishes writes from reads.
	Write bool

	// Parity marks the step touching the stripe's parity unit, so a byte
	// executor can tell data payloads from the XOR checksum without
	// re-resolving the stripe.
	Parity bool

	// Stage is the barrier stage: the step may start once every step of
	// the previous stage completed. Steps are ordered by stage.
	Stage uint8
}

// Plan is a compiled physical I/O plan. The zero value is an empty plan;
// reusing one Plan across compilations reuses its step storage.
type Plan struct {
	// Kind classifies the operation the steps implement.
	Kind Kind

	// Logical is the logical address the plan serves (-1 for rebuild
	// stripe plans, which serve a whole stripe).
	Logical int

	// Stripe is the global index of the parity stripe the plan operates
	// on; byte executors key their per-stripe write locks on it.
	Stripe int

	// Target is the unit the plan reconstructs or cannot touch because
	// its disk is down: the lost home unit for DegradedRead,
	// ReconstructWrite and DegradedWrite, the (first) lost parity unit
	// for DataOnlyWrite, and the unit being rebuilt for RebuildStripe.
	// It is the zero Unit for healthy plans (Read, SmallWrite,
	// FullStripeWrite).
	Target layout.Unit

	// TargetShard is Target's erasure-code shard index within its stripe
	// (data units 0..k-1, parity unit j is k+j), or -1 when the plan has
	// no reconstruction target. Executors pass it straight to
	// code.Code.PlanReconstruct.
	TargetShard int

	// DataShards is the stripe's data unit count k, set on every plan
	// that touches parity (parity unit j carries shard index k+j, so
	// executors recover j as shard - k); 0 on plain Reads.
	DataShards int

	// Missing lists the stripe's failed erasure-code shard indices in
	// increasing order — the failure mask executors hand to
	// code.Code.PlanReconstruct. It is populated for the kinds that
	// resolve the whole stripe: DegradedRead, ReconstructWrite,
	// DegradedWrite, FullStripeWrite and RebuildStripe. Read, SmallWrite
	// and DataOnlyWrite reconstruct nothing and leave it empty, whatever
	// else in the stripe is down.
	Missing []int

	// Steps lists the unit operations in execution order (by stage).
	Steps []Step
}

// reset re-tags the plan and truncates its steps, keeping capacity.
func (p *Plan) reset(kind Kind, logical, stripe int) {
	p.Kind = kind
	p.Logical = logical
	p.Stripe = stripe
	p.Target = layout.Unit{}
	p.TargetShard = -1
	p.DataShards = 0
	p.Missing = p.Missing[:0]
	p.Steps = p.Steps[:0]
}

// Reads returns the number of read steps.
func (p *Plan) Reads() int {
	n := 0
	for i := range p.Steps {
		if !p.Steps[i].Write {
			n++
		}
	}
	return n
}

// Writes returns the number of write steps.
func (p *Plan) Writes() int { return len(p.Steps) - p.Reads() }

// Stages returns the number of barrier stages.
func (p *Plan) Stages() int {
	if len(p.Steps) == 0 {
		return 0
	}
	return int(p.Steps[len(p.Steps)-1].Stage) + 1
}

// String renders the plan for tracing: kind, logical address, and the
// steps grouped by stage.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", p.Kind)
	if p.Logical >= 0 {
		fmt.Fprintf(&b, " logical %d", p.Logical)
	}
	if len(p.Steps) == 0 {
		b.WriteString(": no steps")
		return b.String()
	}
	cur := -1
	for _, s := range p.Steps {
		if int(s.Stage) != cur {
			cur = int(s.Stage)
			fmt.Fprintf(&b, "\n  stage %d:", cur)
		}
		op := "read"
		if s.Write {
			op = "write"
		}
		fmt.Fprintf(&b, " %s(d%d,o%d)", op, s.Disk, s.Offset)
	}
	return b.String()
}

// Planner compiles logical operations against one Mapper. A Planner
// reuses internal scratch space, so it is NOT safe for concurrent use;
// create one per serving goroutine (they share the read-only Mapper).
type Planner struct {
	m    *pdl.Mapper
	buf  []layout.Unit
	pbuf []layout.Unit
}

// NewPlanner returns a plan compiler over a Mapper.
func NewPlanner(m *pdl.Mapper) *Planner {
	if m == nil {
		panic("plan: NewPlanner: nil Mapper")
	}
	return &Planner{m: m}
}

// Mapper returns the Mapper plans are compiled against.
func (p *Planner) Mapper() *pdl.Mapper { return p.m }

// checkFailedSet validates a failed-disk set: in-range, strictly
// increasing (sorted, no duplicates). An empty or nil set is a healthy
// array.
func (p *Planner) checkFailedSet(op string, failed []int) error {
	prev := -1
	for _, f := range failed {
		if f < 0 || f >= p.m.Disks() {
			return fmt.Errorf("plan: %s: failed disk %d outside [0,%d)", op, f, p.m.Disks())
		}
		if f <= prev {
			return fmt.Errorf("plan: %s: failed disks %v not sorted and distinct", op, failed)
		}
		prev = f
	}
	return nil
}

// down reports whether a disk is in the (small) failed set.
func down(disk int, failed []int) bool {
	for _, f := range failed {
		if f == disk {
			return true
		}
	}
	return false
}

// setStripeMeta fills the reconstruction metadata of a stripe-resolving
// plan: the data shard count and the sorted failed-shard mask.
func (p *Planner) setStripeMeta(dst *Plan, units []layout.Unit, failed []int) {
	dst.DataShards = len(units) - p.m.ParityShards()
	for _, u := range units {
		if down(u.Disk, failed) {
			dst.Missing = append(dst.Missing, p.m.ShardAt(u))
		}
	}
	// Insertion sort: parity shards can precede data shards in stripe
	// order, and the code contract wants an increasing mask.
	ms := dst.Missing
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j-1] > ms[j]; j-- {
			ms[j-1], ms[j] = ms[j], ms[j-1]
		}
	}
}

// ReadM compiles a one-unit read of a logical address into dst, with
// failed the set of simultaneously failed disks (sorted, distinct; nil
// or empty = healthy). When the home unit survives, the plan is a plain
// Read regardless of other failures; when it is lost, the DegradedRead
// lists every surviving unit of the stripe — the executor weighs them
// with the erasure code's reconstruction coefficients (skipping
// zero-weight units), using the plan's TargetShard, DataShards and
// Missing metadata.
func (p *Planner) ReadM(logical int, failed []int, dst *Plan) error {
	if err := p.checkFailedSet("Read", failed); err != nil {
		return err
	}
	stripe, home, err := p.m.StripeOf(logical)
	if err != nil {
		return err
	}
	if !down(home.Disk, failed) {
		dst.reset(Read, logical, stripe)
		dst.Steps = append(dst.Steps, Step{Unit: home})
		return nil
	}
	units, err := p.m.AppendStripeUnits(p.buf[:0], stripe)
	p.buf = units[:0]
	if err != nil {
		return err
	}
	dst.reset(DegradedRead, logical, stripe)
	dst.Target = home
	dst.TargetShard = p.m.ShardAt(home)
	p.setStripeMeta(dst, units, failed)
	k := dst.DataShards
	for _, u := range units {
		if down(u.Disk, failed) {
			continue
		}
		dst.Steps = append(dst.Steps, Step{Unit: u, Parity: p.m.ShardAt(u) >= k})
	}
	return nil
}

// WriteM compiles a small write of a logical address into dst, with
// failed the set of simultaneously failed disks (sorted, distinct; nil
// or empty = healthy): the read-modify-write of data and parity, or one
// of its degraded variants. The compiled kind depends on which of the
// stripe's units survive:
//
//   - home alive, at least one parity alive: SmallWrite reading and
//     rewriting the home unit and every surviving parity unit;
//   - home alive, every parity lost: DataOnlyWrite;
//   - home lost, every other data unit alive: ReconstructWrite reading
//     the surviving data units and rewriting the surviving parity units
//     from scratch;
//   - home lost along with another data unit (multi-parity only):
//     DegradedWrite reading every surviving unit — the old home payload
//     is reconstructed to form the parity delta — and rewriting the
//     surviving parity units.
func (p *Planner) WriteM(logical int, failed []int, dst *Plan) error {
	if err := p.checkFailedSet("Write", failed); err != nil {
		return err
	}
	stripe, home, err := p.m.StripeOf(logical)
	if err != nil {
		return err
	}
	par, err := p.m.AppendParityUnits(p.pbuf[:0], stripe)
	p.pbuf = par[:0]
	if err != nil {
		return err
	}
	if !down(home.Disk, failed) {
		alive := 0
		for _, pu := range par {
			if !down(pu.Disk, failed) {
				alive++
			}
		}
		if alive == 0 {
			dst.reset(DataOnlyWrite, logical, stripe)
			dst.Target = par[0]
			dst.TargetShard = p.m.ShardAt(par[0])
			dst.DataShards = p.m.ShardAt(par[0])
			dst.Steps = append(dst.Steps, Step{Unit: home, Write: true})
			return nil
		}
		dst.reset(SmallWrite, logical, stripe)
		dst.DataShards = p.m.ShardAt(par[0])
		dst.Steps = append(dst.Steps, Step{Unit: home})
		for _, pu := range par {
			if !down(pu.Disk, failed) {
				dst.Steps = append(dst.Steps, Step{Unit: pu, Parity: true})
			}
		}
		dst.Steps = append(dst.Steps, Step{Unit: home, Write: true, Stage: 1})
		for _, pu := range par {
			if !down(pu.Disk, failed) {
				dst.Steps = append(dst.Steps, Step{Unit: pu, Write: true, Parity: true, Stage: 1})
			}
		}
		return nil
	}

	// Home is lost: resolve the whole stripe to find what else is down.
	units, err := p.m.AppendStripeUnits(p.buf[:0], stripe)
	p.buf = units[:0]
	if err != nil {
		return err
	}
	k := len(units) - p.m.ParityShards()
	dataDown := 0 // includes the home unit
	for _, u := range units {
		if down(u.Disk, failed) && p.m.ShardAt(u) < k {
			dataDown++
		}
	}
	if dataDown <= 1 {
		// Reconstruct-write: every other data unit survives, so the new
		// parity values follow from the surviving data plus the payload.
		dst.reset(ReconstructWrite, logical, stripe)
	} else {
		// Another data unit is also lost: the executor must reconstruct
		// the old home payload first, so it reads parity units too.
		dst.reset(DegradedWrite, logical, stripe)
	}
	dst.Target = home
	dst.TargetShard = p.m.ShardAt(home)
	p.setStripeMeta(dst, units, failed)
	for _, u := range units {
		if down(u.Disk, failed) {
			continue
		}
		if dst.Kind == ReconstructWrite && p.m.ShardAt(u) >= k {
			continue
		}
		dst.Steps = append(dst.Steps, Step{Unit: u, Parity: p.m.ShardAt(u) >= k})
	}
	for _, pu := range par {
		if !down(pu.Disk, failed) {
			dst.Steps = append(dst.Steps, Step{Unit: pu, Write: true, Parity: true, Stage: 1})
		}
	}
	return nil
}

// FullStripeWriteM compiles a large write covering every data unit of
// the stripe holding logical (Condition 5), with failed the set of
// simultaneously failed disks (sorted, distinct; nil or empty =
// healthy): the stripe's units are written with no pre-reads, skipping
// those on failed disks.
func (p *Planner) FullStripeWriteM(logical int, failed []int, dst *Plan) error {
	if err := p.checkFailedSet("FullStripeWrite", failed); err != nil {
		return err
	}
	stripe, _, err := p.m.StripeOf(logical)
	if err != nil {
		return err
	}
	units, err := p.m.AppendStripeUnits(p.buf[:0], stripe)
	p.buf = units[:0]
	if err != nil {
		return err
	}
	dst.reset(FullStripeWrite, logical, stripe)
	p.setStripeMeta(dst, units, failed)
	k := dst.DataShards
	for _, u := range units {
		if down(u.Disk, failed) {
			continue
		}
		dst.Steps = append(dst.Steps, Step{Unit: u, Write: true, Parity: p.m.ShardAt(u) >= k})
	}
	return nil
}

// RebuildM compiles the reconstruction schedule for one disk of a failed
// set: target names the disk being rebuilt, failed the complete sorted
// set of down disks (which must contain target). It materialises what
// RebuildStripe streams — one plan per crossing stripe, in disk-scan
// order, each with its own storage — plus the per-disk read counts the
// schedule induces: the reconstruction-workload balance the paper's
// Condition 3 governs. It serves consumers that want the whole schedule
// at once (the simulator, traces, the read-balance tallies).
func (p *Planner) RebuildM(target int, failed []int) (*Rebuild, error) {
	rb := &Rebuild{Failed: target, Reads: make([]int64, p.m.Disks()), failed: slices.Clone(failed)}
	for s := 0; s < p.m.Stripes(); s++ {
		var pl Plan
		crosses, err := p.RebuildStripe(s, target, failed, &pl)
		if err != nil {
			return nil, err
		}
		if !crosses {
			continue
		}
		for _, st := range pl.Steps {
			rb.Reads[st.Disk]++
		}
		rb.Plans = append(rb.Plans, pl)
	}
	return rb, nil
}

// RebuildStripe is the rebuild-plan compiler: it compiles into dst the
// RebuildStripe plan reconstructing the unit stripe holds on disk
// target, with failed the complete sorted set of down disks (which must
// contain target), and reports whether the stripe crosses target at all
// — when it does not, crosses is false and dst is left alone. Steps read
// only surviving units; the executor weighs them with the erasure code's
// reconstruction coefficients, so with extra parity in the stripe some
// reads carry zero weight and are skipped at execution time. Like every
// other compiler here it reuses dst's storage, so a rebuild that walks
// the stripes with one Plan allocates nothing per stripe.
func (p *Planner) RebuildStripe(stripe, target int, failed []int, dst *Plan) (crosses bool, err error) {
	if err := p.checkFailedSet("Rebuild", failed); err != nil {
		return false, err
	}
	if target < 0 || target >= p.m.Disks() {
		return false, fmt.Errorf("plan: Rebuild: failed disk %d outside [0,%d)", target, p.m.Disks())
	}
	if !down(target, failed) {
		return false, fmt.Errorf("plan: Rebuild: target disk %d not in failed set %v", target, failed)
	}
	units, err := p.m.AppendStripeUnits(p.buf[:0], stripe)
	p.buf = units[:0]
	if err != nil {
		return false, err
	}
	var lost layout.Unit
	for _, u := range units {
		if u.Disk == target {
			lost = u
			crosses = true
			break
		}
	}
	if !crosses {
		return false, nil
	}
	dst.reset(RebuildStripe, -1, stripe)
	dst.Target = lost
	dst.TargetShard = p.m.ShardAt(lost)
	p.setStripeMeta(dst, units, failed)
	k := dst.DataShards
	for _, u := range units {
		if down(u.Disk, failed) {
			continue
		}
		dst.Steps = append(dst.Steps, Step{Unit: u, Parity: p.m.ShardAt(u) >= k})
	}
	return true, nil
}

// Rebuild is a compiled reconstruction schedule for one failed disk.
type Rebuild struct {
	// Failed is the disk being reconstructed.
	Failed int

	// Plans holds one RebuildStripe plan per stripe crossing the failed
	// disk, in disk-scan order (copy by copy, stripe by stripe).
	Plans []Plan

	// Reads[d] is the number of unit reads the schedule issues to disk d.
	Reads []int64

	// failed is the complete failed set the schedule was compiled
	// against: none of its disks is a survivor.
	failed []int
}

// survivor reports whether disk d is outside the failed set.
func (r *Rebuild) survivor(d int) bool { return d != r.Failed && !down(d, r.failed) }

// MaxSurvivorReads returns the bottleneck read count over surviving
// disks: it determines rebuild time when disks run in parallel.
func (r *Rebuild) MaxSurvivorReads() int64 {
	var max int64
	for d, n := range r.Reads {
		if r.survivor(d) && n > max {
			max = n
		}
	}
	return max
}

// Balance returns the minimum and maximum read counts over surviving
// disks — equal under the paper's Condition 3 (every surviving disk
// contributes the same reconstruction workload).
func (r *Rebuild) Balance() (min, max int64) {
	first := true
	for d, n := range r.Reads {
		if !r.survivor(d) {
			continue
		}
		if first {
			min, max = n, n
			first = false
			continue
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}
