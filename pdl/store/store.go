// Package store is the serving engine of the parity-declustered layout
// library: a Store owns one byte Backend per disk (in-memory MemDisk
// slabs or FileDisk files) and executes pdl/plan I/O plans against them —
// healthy and degraded reads, read-modify-write and full-stripe parity
// writes, and an online Rebuild that streams survivor reconstruction
// onto a replacement disk while foreground traffic continues.
//
// Redundancy is pluggable (repro/pdl/code) and every code runs the same
// executors: parity j is the Coef(j, i)-weighted sum of the stripe's data
// units, XOR being the all-ones single-parity case (its bytes are what
// this engine always wrote). Layouts carrying m parity units per stripe
// run an m-failure-tolerant Reed–Solomon code — the store then serves
// degraded reads and writes, and rebuilds online, with up to m disks down
// at once.
//
// The engine is built for concurrency: plan compilation state lives in a
// sync.Pool of per-request scratch (a plan.Planner, a reusable Plan, and
// parity work buffers), so the healthy Read/Write hot path performs zero
// allocations per request; parity atomicity comes from striped per-stripe
// RWMutexes (readers share, writers and the rebuilder serialize per
// stripe); per-disk counters are atomics feeding a Stats snapshot.
//
// Correctness is anchored to pdl/layout's single-threaded Data engine:
// the reference model the store's property tests compare every byte
// against (see TestStoreMatchesDataModel and
// TestStoreTwoFailureMatchesDataModel).
package store

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/pdl"
	"repro/pdl/code"
	"repro/pdl/layout"
	"repro/pdl/obs"
	"repro/pdl/plan"
)

// maxLockStripes bounds the striped-lock table: enough locks that
// concurrent writers on distinct stripes rarely collide, small enough to
// make the rebuild/fail all-locks barrier cheap.
const maxLockStripes = 256

const (
	// rebuildChunk is how many consecutive stripes one hold of a chunk's
	// locks covers: what a rebuild worker claims and writes as one window,
	// and the longest window of whole stripes a WriteAt or WriteVec writes
	// (see window).
	// Few enough that rebuild workers finish together and foreground ops
	// queue behind a chunk's locks only briefly; enough that each disk's
	// units of a chunk land as one long write. On G17 a chunk is one run of
	// 16 or 28 units per disk (64 or 112 KiB at 4 KiB units, past
	// MmapDisk's bulkWrite). Written a window at a time, the 1 MiB chunks
	// (64 XOR stripes each) that fill a fresh 32-copy G17 MmapDisk array
	// took 0.058 s (median of 10 runs, 0.050–0.076) instead of 0.130 s
	// (0.103–0.143) with a write per unit, on a 2-vCPU Xeon with ext4.
	rebuildChunk = 64

	// rebuildIdleWait is how long the store must go without a foreground
	// read or write before a stood-down rebuild helper rejoins.
	rebuildIdleWait = 5 * time.Millisecond
)

// DiskStats is one disk's operation counters.
type DiskStats struct {
	// Reads and Writes count physical unit-range operations issued.
	Reads, Writes int64

	// ReadBytes and WriteBytes count the bytes those operations moved.
	ReadBytes, WriteBytes int64

	// Degraded counts the physical operations issued on behalf of
	// degraded-mode plans (survivor reconstruction reads,
	// reconstruct-writes, rebuild traffic). Ops on a stripe an
	// in-progress Rebuild has already rebuilt are served from the
	// replacement and count as degraded only if another disk of the
	// stripe is still down.
	Degraded int64
}

// Stats is a point-in-time snapshot of a Store's state.
type Stats struct {
	// FailedDisks lists every currently-failed disk in increasing order;
	// empty when healthy. Multi-parity codes tolerate up to
	// Code().ParityShards() simultaneous entries.
	FailedDisks []int

	// Rebuilding reports whether an online Rebuild is in progress.
	Rebuilding bool

	// RebuiltStripes is how many stripes the in-progress Rebuild has
	// copied onto the replacement (0 when no rebuild is running);
	// TotalStripes is the stripe count it is working through.
	RebuiltStripes, TotalStripes int

	// RebuildWorkers is how many goroutines of the in-progress Rebuild
	// are reconstructing stripes right now: one while foreground reads
	// and writes keep arriving, up to min(GOMAXPROCS, surviving disks) on
	// an idle store, 0 when no rebuild is running.
	RebuildWorkers int

	// Disks holds per-disk counters, indexed by disk.
	Disks []DiskStats
}

// diskCounters is the atomics-backed stats block, padded to a cache line
// so disks don't false-share under concurrent traffic.
type diskCounters struct {
	reads, writes, readBytes, writeBytes, degraded atomic.Int64
	_                                              [24]byte
}

// failSet is an immutable snapshot of the failed-disk set, sorted
// increasing. State transitions (Fail, Rebuild start and completion)
// allocate a fresh value and swap the pointer while holding every stripe
// lock, so the set a request reads through failsFor under a stripe lock
// cannot change while it holds that lock.
type failSet struct {
	disks []int
}

// healthyFails is the shared empty set a healthy Store points at.
var healthyFails = &failSet{}

func (f *failSet) has(d int) bool {
	for _, x := range f.disks {
		if x == d {
			return true
		}
	}
	return false
}

func (f *failSet) first() int {
	if len(f.disks) == 0 {
		return -1
	}
	return f.disks[0]
}

// without returns a new set with one disk removed.
func (f *failSet) without(d int) *failSet {
	out := &failSet{disks: make([]int, 0, len(f.disks))}
	for _, x := range f.disks {
		if x != d {
			out.disks = append(out.disks, x)
		}
	}
	return out
}

// with returns a new set with one disk added, keeping sort order.
func (f *failSet) with(d int) *failSet {
	out := &failSet{disks: make([]int, 0, len(f.disks)+1)}
	for _, x := range f.disks {
		if x < d {
			out.disks = append(out.disks, x)
		}
	}
	out.disks = append(out.disks, d)
	for _, x := range f.disks {
		if x > d {
			out.disks = append(out.disks, x)
		}
	}
	return out
}

// scratch is the per-request compilation and parity state recycled
// through the Store's pool: with it, a steady-state healthy Read or
// Write allocates nothing.
type scratch struct {
	pln   *plan.Planner
	p     plan.Plan
	a, b  []byte
	units []layout.Unit

	// coef is the reconstruction coefficient buffer (one byte per shard
	// of the widest stripe); par holds one work buffer per parity shard.
	coef []byte
	par  [][]byte

	// pieces holds a span or vec request's pieces, grouped by stripe (see
	// run). Entries past len are zero, so a pooled scratch pins no caller
	// buffer.
	pieces []piece
}

// windowState is a write window's working set, pooled apart from
// scratch so that only window writers hold one: the unit reads and
// writes that recycle a scratch do not keep it alive. win holds the
// window's units in stripe order, byDisk the same units bucketed by
// disk, and diskPos the bucketing's per-disk cursor (see window and
// writeWindowLocked). iov is one run's buffers, cleared after its write.
// slots holds the run's parity units, or, for a rebuild worker, which
// keeps one windowState for its whole life, its chunk's lost units,
// reconstructed and packed in stripe order (see rebuildStripes).
type windowState struct {
	win, byDisk []windowUnit
	diskPos     []int
	iov         [][]byte
	slots       []byte
}

// windowUnit is one unit of a write window: its place on disk, its
// stripe, and its bytes. A unit listed without bytes is a parity unit,
// encoded from its stripe's k data pieces, which start at pieces[first]
// of the window, and it is shard shard of the stripe. A rebuild unit is
// a lost unit whose stripe is marked rebuilt once its run has landed.
type windowUnit struct {
	disk, off, stripe, first, k, shard int
	buf                                []byte
	rebuild                            bool
}

// piece is one unit's part of a request: bytes [within, within+len(buf))
// of logical data unit logical, which lies in stripe stripe. buf is the
// caller's destination on a read and source on a write.
type piece struct {
	stripe, logical, within int
	buf                     []byte
}

// Store serves reads and writes against real bytes under a
// parity-declustered layout. All methods are safe for concurrent use.
type Store struct {
	mapper   *pdl.Mapper
	unitSize int
	capacity int // logical data units
	size     int64
	codec    code.Code
	pm       int // parity shards per stripe (m)
	// maxShards is the widest stripe's shard count (k+m): the coef
	// buffer size.
	maxShards int
	// minData is the smallest stripe's data unit count: a write group
	// with fewer pieces cannot cover its stripe.
	minData int

	// locks are the striped per-stripe RW locks: stripe s is guarded by
	// locks[s&lockMask]. fails, disks, and rebuiltFails change only while
	// holding every lock, so holding any one of them (even shared) gives a
	// consistent view of all of them.
	locks    []sync.RWMutex
	lockMask int

	// admin serializes Fail/Rebuild state transitions; rebuilding and
	// rebuiltStripes are atomics so Stats and metric scrapes read them
	// without touching the admin lock.
	rebuilding     atomic.Bool
	rebuiltStripes atomic.Int64
	admin          sync.Mutex
	// rebuildWorkers is Stats.RebuildWorkers; helperChunks counts the
	// chunks of stripes that rebuild helpers (every worker but the first)
	// have claimed over the store's life.
	rebuildWorkers atomic.Int64
	helperChunks   atomic.Int64

	disks []Backend
	// fails is the current failed-disk set (immutable snapshot; see
	// failSet). It is swapped only while holding every lock.
	fails atomic.Pointer[failSet]
	// rebuiltFails is the failed set without the disk the in-progress
	// Rebuild reconstructs, nil otherwise. rebuilt[s] records that stripe
	// s is already on the replacement; it is read and written only under
	// stripe s's lock, and such a stripe is served against rebuiltFails
	// (see failsFor).
	rebuiltFails *failSet
	rebuilt      []bool

	counters []diskCounters
	// opHist records per-operation wall latency of the public I/O entry
	// points (Read/ReadAt/ReadVec and Write/WriteAt/WriteVec), indexed by
	// histRead/histWrite: a single lock-free histogram record per op.
	opHist  [2]obs.Hist
	pool    sync.Pool
	windows sync.Pool // *windowState
}

// opHist indexes.
const (
	histRead = iota
	histWrite
)

// New builds a Store executing plans over mapper against one Backend per
// disk, running the default erasure code for the layout's parity count
// (XOR for single parity, Reed–Solomon beyond). Each backend must hold
// at least mapper.DiskUnits()*unitSize bytes; unit payloads are unitSize
// bytes.
func New(mapper *pdl.Mapper, unitSize int, disks []Backend) (*Store, error) {
	if mapper == nil {
		return nil, fmt.Errorf("store: New: nil Mapper")
	}
	if m := mapper.ParityShards(); m < 1 || m > code.MaxParityShards {
		return nil, fmt.Errorf("store: New: layout carries %d parity units per stripe, supported range [1,%d]", m, code.MaxParityShards)
	}
	return NewCode(mapper, unitSize, disks, code.Default(mapper.ParityShards()))
}

// NewCode is New with an explicit erasure code, whose parity shard count
// must match the layout's parity units per stripe.
func NewCode(mapper *pdl.Mapper, unitSize int, disks []Backend, c code.Code) (*Store, error) {
	if mapper == nil {
		return nil, fmt.Errorf("store: New: nil Mapper")
	}
	if unitSize < 1 {
		return nil, fmt.Errorf("store: New: unit size %d < 1", unitSize)
	}
	if c == nil {
		return nil, fmt.Errorf("store: New: nil Code")
	}
	if c.ParityShards() != mapper.ParityShards() {
		return nil, fmt.Errorf("store: New: code %q has %d parity shards, layout carries %d", c.Name(), c.ParityShards(), mapper.ParityShards())
	}
	if len(disks) != mapper.Disks() {
		return nil, fmt.Errorf("store: New: %d backends for %d disks", len(disks), mapper.Disks())
	}
	need := int64(mapper.DiskUnits()) * int64(unitSize)
	for d, b := range disks {
		if b == nil {
			return nil, fmt.Errorf("store: New: nil backend for disk %d", d)
		}
		if b.Size() < need {
			return nil, fmt.Errorf("store: New: disk %d holds %d bytes, layout needs %d", d, b.Size(), need)
		}
	}
	n := 1
	for n < mapper.Stripes() && n < maxLockStripes {
		n <<= 1
	}
	pm := c.ParityShards()
	s := &Store{
		mapper:   mapper,
		unitSize: unitSize,
		capacity: mapper.DataUnits(),
		size:     int64(mapper.DataUnits()) * int64(unitSize),
		codec:    c,
		pm:       pm,
		locks:    make([]sync.RWMutex, n),
		lockMask: n - 1,
		disks:    append([]Backend(nil), disks...),
		rebuilt:  make([]bool, mapper.Stripes()),
		counters: make([]diskCounters, mapper.Disks()),
	}
	s.fails.Store(healthyFails)
	var units []layout.Unit
	for stripe := 0; stripe < mapper.Stripes(); stripe++ {
		var err error
		units, err = mapper.AppendStripeUnits(units[:0], stripe)
		if err != nil {
			return nil, fmt.Errorf("store: New: %w", err)
		}
		k := len(units) - pm
		if k < 1 || k > c.MaxDataShards() {
			return nil, fmt.Errorf("store: New: stripe %d has %d data units, code %q takes 1..%d", stripe, k, c.Name(), c.MaxDataShards())
		}
		if s.minData == 0 || k < s.minData {
			s.minData = k
		}
		if len(units) > s.maxShards {
			s.maxShards = len(units)
		}
	}
	s.pool.New = func() any {
		sc := &scratch{
			pln:  plan.NewPlanner(mapper),
			a:    make([]byte, unitSize),
			b:    make([]byte, unitSize),
			coef: make([]byte, s.maxShards),
			par:  make([][]byte, pm),
		}
		for j := range sc.par {
			sc.par[j] = make([]byte, unitSize)
		}
		return sc
	}
	s.windows.New = func() any { return &windowState{diskPos: make([]int, mapper.Disks()+1)} }
	return s, nil
}

// Open is the convenience constructor over the pdl facade: it builds the
// Mapper for a pdl.Build result on disks of diskUnits units and serves it
// from the given backends. A nil backends slice provisions one MemDisk
// per disk, sized exactly for the geometry.
func Open(res *pdl.Result, diskUnits, unitSize int, backends []Backend) (*Store, error) {
	m, err := res.NewMapper(diskUnits)
	if err != nil {
		return nil, fmt.Errorf("store: Open: %w", err)
	}
	if backends == nil {
		backends = make([]Backend, m.Disks())
		for d := range backends {
			backends[d] = NewMemDisk(int64(diskUnits) * int64(unitSize))
		}
	}
	return New(m, unitSize, backends)
}

// Mapper returns the address translator the store serves.
func (s *Store) Mapper() *pdl.Mapper { return s.mapper }

// Code returns the erasure code governing the array's parity bytes.
func (s *Store) Code() code.Code { return s.codec }

// UnitSize returns the payload size of one stripe unit in bytes.
func (s *Store) UnitSize() int { return s.unitSize }

// Capacity returns the number of addressable logical data units.
func (s *Store) Capacity() int { return s.capacity }

// Size returns the logical byte capacity (Capacity * UnitSize).
func (s *Store) Size() int64 { return s.size }

// Failed returns the lowest-numbered failed disk, -1 when healthy. It is
// kept only because the benchmark's rebuild cycle (bench/workloads.go)
// calls it; read FailedDisks instead.
func (s *Store) Failed() int { return s.fails.Load().first() }

// FailedDisks returns the currently-failed disks in increasing order
// (nil when healthy).
func (s *Store) FailedDisks() []int {
	f := s.fails.Load()
	if len(f.disks) == 0 {
		return nil
	}
	return append([]int(nil), f.disks...)
}

// DiskBackend returns the Backend currently serving disk d, for tools
// and tests inspecting a quiesced store. Rebuild puts its replacement in
// the rebuilt disk's slot when it starts, and puts the old backend back
// only if it fails.
func (s *Store) DiskBackend(d int) Backend {
	s.locks[0].RLock()
	defer s.locks[0].RUnlock()
	return s.disks[d]
}

// Stats snapshots the per-disk counters and failure state.
func (s *Store) Stats() Stats {
	st := Stats{
		FailedDisks:    s.FailedDisks(),
		Rebuilding:     s.rebuilding.Load(),
		RebuiltStripes: int(s.rebuiltStripes.Load()),
		TotalStripes:   s.mapper.Stripes(),
		RebuildWorkers: int(s.rebuildWorkers.Load()),
		Disks:          make([]DiskStats, len(s.counters)),
	}
	for d := range s.counters {
		c := &s.counters[d]
		st.Disks[d] = DiskStats{
			Reads:      c.reads.Load(),
			Writes:     c.writes.Load(),
			ReadBytes:  c.readBytes.Load(),
			WriteBytes: c.writeBytes.Load(),
			Degraded:   c.degraded.Load(),
		}
	}
	return st
}

// Close closes every backend, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, b := range s.disks {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// lockFor returns the striped lock guarding a stripe.
func (s *Store) lockFor(stripe int) *sync.RWMutex { return &s.locks[stripe&s.lockMask] }

// lockAll acquires every striped lock (in order), quiescing all ops; it
// guards failure-state transitions.
func (s *Store) lockAll() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.locks) - 1; i >= 0; i-- {
		s.locks[i].Unlock()
	}
}

// chunkLocks write-locks (or, with unlock set, releases) the distinct
// locks of stripes [lo, hi) in ascending lock index. The stripes' indexes
// form one range of the lock table, possibly wrapping past its end; taken
// low to high — lockAll's order — a chunk holder cannot deadlock against
// lockAll, another chunk holder, or a caller holding one lock.
func (s *Store) chunkLocks(lo, hi int, unlock bool) {
	first, last := lo&s.lockMask, (hi-1)&s.lockMask
	var ranges [2][]sync.RWMutex
	switch {
	case hi-lo >= len(s.locks):
		ranges[0] = s.locks
	case first <= last:
		ranges[0] = s.locks[first : last+1]
	default: // wrapped: the table's head comes first
		ranges[0], ranges[1] = s.locks[:last+1], s.locks[first:]
	}
	for _, r := range ranges {
		for i := range r {
			if unlock {
				r[i].Unlock()
			} else {
				r[i].Lock()
			}
		}
	}
}

// noteIO bumps one disk's counters for a physical operation of n bytes.
func (s *Store) noteIO(disk int, write, degraded bool, n int) {
	c := &s.counters[disk]
	if write {
		c.writes.Add(1)
		c.writeBytes.Add(int64(n))
	} else {
		c.reads.Add(1)
		c.readBytes.Add(int64(n))
	}
	if degraded {
		c.degraded.Add(1)
	}
}

// byteOff converts a unit position plus an intra-unit offset to a disk
// byte offset.
func (s *Store) byteOff(u layout.Unit, within int) int64 {
	return int64(u.Offset)*int64(s.unitSize) + int64(within)
}

// Fail marks a disk failed: reads of its units go degraded (survivor
// reconstruction), writes switch to their degraded plans. The store
// tolerates up to Code().ParityShards() simultaneous failures — one for
// the classic XOR arrays, m for an m-parity Reed–Solomon array. Failing
// a disk while a Rebuild is in progress is an error.
func (s *Store) Fail(disk int) error {
	if disk < 0 || disk >= len(s.disks) {
		return fmt.Errorf("store: Fail(%d): disk outside [0,%d)", disk, len(s.disks))
	}
	s.admin.Lock()
	defer s.admin.Unlock()
	if s.rebuilding.Load() {
		return fmt.Errorf("store: Fail(%d): rebuild in progress", disk)
	}
	s.lockAll()
	defer s.unlockAll()
	cur := s.fails.Load()
	if cur.has(disk) {
		return fmt.Errorf("store: Fail(%d): disk %d already failed", disk, disk)
	}
	if len(cur.disks) >= s.pm {
		return fmt.Errorf("store: Fail(%d): disk %d already failed; code %q tolerates %d simultaneous failures", disk, cur.first(), s.codec.Name(), s.pm)
	}
	s.fails.Store(cur.with(disk))
	return nil
}

// Read fills dst (exactly UnitSize bytes) with the payload of a logical
// data unit, reconstructing it from survivors when its disk is down.
func (s *Store) Read(logical int, dst []byte) error {
	if len(dst) != s.unitSize {
		return fmt.Errorf("store: Read: dst is %d bytes, want unit size %d", len(dst), s.unitSize)
	}
	return s.runUnit(logical, dst, false)
}

// Write stores src (exactly UnitSize bytes) as the payload of a logical
// data unit, maintaining parity via the compiled small-write (or its
// degraded variant).
func (s *Store) Write(logical int, src []byte) error {
	if len(src) != s.unitSize {
		return fmt.Errorf("store: Write: src is %d bytes, want unit size %d", len(src), s.unitSize)
	}
	return s.runUnit(logical, src, true)
}

// ReadAt implements io.ReaderAt over the logical byte space
// [0, Size()), spanning units and stripes as needed. Each stripe's part
// of p is read under one hold of the stripe's lock, so it never mixes
// bytes from before and after a concurrent write to that stripe; the
// request as a whole is not atomic across stripes.
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: ReadAt: negative offset %d", off)
	}
	return s.runSpan(p, off, false)
}

// WriteAt implements io.WriterAt over the logical byte space. Each
// stripe's part of p is written under one hold of the stripe's lock, so
// concurrent reads of that stripe see all of it or none of it; the
// request as a whole is not atomic across stripes. Parts covering every
// data unit of their stripes take the no-preread full-stripe path
// (Condition 5), up to rebuildChunk consecutive stripes at a time: such a
// window holds all of its stripes' locks and writes each disk's units of
// it with one vectored write per run of consecutive offsets. The other
// parts are per-unit read-modify-writes. On an error the count is the
// bytes of the windows and read-modify-write units that finished; a
// window that fails counts none of its bytes, though some of its disks
// may hold them.
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: WriteAt: negative offset %d", off)
	}
	if off > s.size-int64(len(p)) {
		return 0, fmt.Errorf("store: WriteAt: %d bytes at %d outside store of %d bytes", len(p), off, s.size)
	}
	return s.runSpan(p, off, true)
}

// runUnit runs a one-piece request: the whole of one logical unit.
func (s *Store) runUnit(logical int, buf []byte, write bool) error {
	start := time.Now()
	stripe, _, err := s.mapper.StripeOf(logical)
	sc := s.pool.Get().(*scratch)
	if err == nil {
		pc := [1]piece{{stripe: stripe, logical: logical, buf: buf}}
		_, err = s.run(sc, pc[:], write)
	}
	s.finish(sc, write, start)
	return err
}

// runSpan runs a byte-range request a window at a time: the pieces of p
// in up to rebuildChunk consecutive stripes' data spans go to run
// together. A read that runs past Size stops there with io.EOF.
func (s *Store) runSpan(p []byte, off int64, write bool) (n int, err error) {
	sc := s.pool.Get().(*scratch)
	defer s.finish(sc, write, time.Now())
	for err == nil && n < len(p) {
		var done int
		if off+int64(n) >= s.size {
			err = io.EOF
		} else if err = s.spanPieces(sc, p[n:], off+int64(n)); err == nil {
			done, err = s.run(sc, sc.pieces, write)
		}
		n += done
	}
	return n, err
}

// spanPieces sets sc.pieces to the pieces of p, placed at byte off, that
// fall in the data spans of the stripe holding off and of the stripes
// after it, up to rebuildChunk stripes or the end of the store.
func (s *Store) spanPieces(sc *scratch, p []byte, off int64) error {
	logical := int(off / int64(s.unitSize))
	within := int(off % int64(s.unitSize))
	clear(sc.pieces)
	sc.pieces = sc.pieces[:0]
	for w := 0; w < rebuildChunk && len(p) > 0 && logical < s.capacity; w++ {
		stripe, home, err := s.mapper.StripeOf(logical)
		if err != nil {
			return err
		}
		units, err := s.mapper.AppendStripeUnits(sc.units[:0], stripe)
		sc.units = units[:0]
		if err != nil {
			return err
		}
		// A stripe's data units hold consecutive logical addresses in shard
		// order, so the span ends k - shard units past the home unit.
		end := logical - s.mapper.ShardAt(home) + len(units) - s.pm
		for ; logical < end && len(p) > 0; logical++ {
			c := min(s.unitSize-within, len(p))
			sc.pieces = append(sc.pieces, piece{stripe: stripe, logical: logical, within: within, buf: p[:c]})
			p = p[c:]
			within = 0
		}
	}
	return nil
}

// finish returns a request's scratch to the pool, dropping its pieces'
// references to the caller's buffers, and records the request's latency.
func (s *Store) finish(sc *scratch, write bool, start time.Time) {
	clear(sc.pieces)
	sc.pieces = sc.pieces[:0]
	s.pool.Put(sc)
	if write {
		s.opHist[histWrite].Record(time.Since(start))
	} else {
		s.opHist[histRead].Record(time.Since(start))
	}
}

// run executes one request's pieces, grouped by stripe, holding each
// stripe's lock once for its whole group: shared for a read, exclusive
// for a write. Consecutive write groups that each cover their whole
// stripe are one window (see window), written under all of its locks,
// taken with chunkLocks, less its units on disks down. Every plan is
// compiled under the lock against failsFor(stripe), so a group sees one
// failure state and no other write to the stripe lands inside it. It
// returns the bytes of the pieces that completed.
func (s *Store) run(sc *scratch, ps []piece, write bool) (int, error) {
	n := 0
	for len(ps) > 0 {
		if ws, w, g := s.window(sc, ps, write); w > 0 {
			lo := ps[0].stripe
			s.chunkLocks(lo, lo+w, false)
			// A unit on a disk its stripe has down is left out: Rebuild
			// reconstructs it from the survivors written here.
			ws.win = slices.DeleteFunc(ws.win, func(u windowUnit) bool { return s.failsFor(u.stripe).has(u.disk) })
			err := s.writeWindowLocked(ws, ps[:g])
			s.chunkLocks(lo, lo+w, true)
			clear(ws.win) // drop the caller's buffers before pooling
			clear(ws.byDisk)
			s.windows.Put(ws)
			if err != nil {
				return n, err
			}
			n += g * s.unitSize
			ps = ps[g:]
			continue
		}
		g := 1
		for g < len(ps) && ps[g].stripe == ps[0].stripe {
			g++
		}
		lk := s.lockFor(ps[0].stripe)
		var done int
		var err error
		if write {
			lk.Lock()
			done, err = s.writeGroupLocked(sc, ps[:g])
			lk.Unlock()
		} else {
			lk.RLock()
			done, err = s.readGroupLocked(sc, ps[:g])
			lk.RUnlock()
		}
		n += done
		if err != nil {
			return n, err
		}
		ps = ps[g:]
	}
	return n, nil
}

// window holds the store's one full-stripe check. It returns how many
// stripes, and how many pieces, make up the write window ps starts with:
// the groups of consecutive stripes from ps[0].stripe on, up to
// rebuildChunk of them, that are each exactly their stripe's k whole
// data units in order — k distinct, increasing addresses of a stripe are
// its k data units in shard order. It returns 0 stripes for a read or
// when the first group is not whole, and otherwise a pooled windowState
// whose win lists the window's units.
func (s *Store) window(sc *scratch, ps []piece, write bool) (ws *windowState, stripes, pieces int) {
	for write && stripes < rebuildChunk && pieces < len(ps) {
		stripe := ps[pieces].stripe
		end := pieces + 1
		for end < len(ps) && ps[end].stripe == stripe {
			end++
		}
		if stripe != ps[0].stripe+stripes || end-pieces < s.minData {
			break
		}
		units, err := s.mapper.AppendStripeUnits(sc.units[:0], stripe)
		sc.units = units[:0]
		g := ps[pieces:end]
		whole := err == nil && len(g) == len(units)-s.pm
		for i := 0; whole && i < len(g); i++ {
			whole = len(g[i].buf) == s.unitSize && (i == 0 || g[i].logical > g[i-1].logical)
		}
		if !whole {
			break
		}
		if ws == nil {
			ws = s.windows.Get().(*windowState)
			ws.win = ws.win[:0]
		}
		for _, u := range units {
			wu := windowUnit{disk: u.Disk, off: u.Offset, stripe: stripe, first: pieces, k: len(g), shard: s.mapper.ShardAt(u)}
			if wu.shard < wu.k {
				wu.buf = g[wu.shard].buf
			}
			ws.win = append(ws.win, wu)
		}
		stripes++
		pieces = end
	}
	return ws, stripes, pieces
}

// failsFor returns the failed set a stripe's plans compile against: the
// set without the disk being rebuilt once the in-progress Rebuild has put
// the stripe on the replacement, the store's failed set otherwise. The
// caller holds the stripe's lock.
func (s *Store) failsFor(stripe int) *failSet {
	if s.rebuiltFails != nil && s.rebuilt[stripe] {
		return s.rebuiltFails
	}
	return s.fails.Load()
}

// readGroupLocked reads one stripe's group of pieces, in order. The
// caller holds the stripe's lock (shared suffices). It returns the bytes
// of the pieces read.
func (s *Store) readGroupLocked(sc *scratch, g []piece) (int, error) {
	fs := s.failsFor(g[0].stripe)
	n := 0
	for i := range g {
		pc := &g[i]
		if err := sc.pln.ReadM(pc.logical, fs.disks, &sc.p); err != nil {
			return n, err
		}
		if err := s.execReadLocked(sc, pc.within, pc.buf); err != nil {
			return n, err
		}
		n += len(pc.buf)
	}
	return n, nil
}

// execReadLocked executes the compiled read plan in sc.p against bytes
// [within, within+len(p)) of each unit. The caller holds the stripe's
// lock (shared suffices) and has compiled sc.p under the current failure
// state.
func (s *Store) execReadLocked(sc *scratch, within int, p []byte) error {
	if sc.p.Kind == plan.Read {
		u := sc.p.Steps[0].Unit
		if _, err := s.disks[u.Disk].ReadAt(p, s.byteOff(u, within)); err != nil {
			return fmt.Errorf("store: read disk %d: %w", u.Disk, err)
		}
		s.noteIO(u.Disk, false, false, len(p))
		return nil
	}
	// Degraded: combine the survivor ranges with the code's
	// reconstruction coefficients (all ones under XOR), skipping
	// zero-weight survivors without reading them.
	coef := sc.coef[:sc.p.DataShards+s.pm]
	if err := s.codec.PlanReconstruct(sc.p.DataShards, sc.p.Missing, sc.p.TargetShard, coef); err != nil {
		return fmt.Errorf("store: degraded read: %w", err)
	}
	clear(p)
	a := sc.a[:len(p)]
	for _, st := range sc.p.Steps {
		w := coef[s.mapper.ShardAt(st.Unit)]
		if w == 0 {
			continue
		}
		if _, err := s.disks[st.Disk].ReadAt(a, s.byteOff(st.Unit, within)); err != nil {
			return fmt.Errorf("store: degraded read disk %d: %w", st.Disk, err)
		}
		code.MulAdd(p, a, w)
		s.noteIO(st.Disk, false, true, len(a))
	}
	return nil
}

// writeGroupLocked writes one stripe's group of pieces that does not
// cover the stripe (see window) as one read-modify-write per piece, in
// order, so the last of duplicate writes wins; the caller holds the
// stripe's write lock. It returns the bytes of the pieces written.
func (s *Store) writeGroupLocked(sc *scratch, g []piece) (int, error) {
	fs := s.failsFor(g[0].stripe)
	n := 0
	for i := range g {
		pc := &g[i]
		if err := sc.pln.WriteM(pc.logical, fs.disks, &sc.p); err != nil {
			return n, err
		}
		if err := s.execWriteLocked(sc, pc.within, pc.buf); err != nil {
			return n, err
		}
		n += len(pc.buf)
	}
	return n, nil
}

// execWriteLocked executes the compiled write plan in sc.p against bytes
// [within, within+len(p)) of the addressed unit, updating parity. The
// caller holds the stripe's write lock and has compiled sc.p against
// failsFor(stripe). One executor serves every code: parity j absorbs
// Coef(j, i)-weighted deltas and any subset of the stripe's units may be
// lost (up to m); XOR is the all-ones, m = 1 case, kept fast by the
// code's own kernels (UpdateParity, MulAdd's c == 1 path).
func (s *Store) execWriteLocked(sc *scratch, within int, p []byte) error {
	k := sc.p.DataShards
	a, b := sc.a[:len(p)], sc.b[:len(p)]
	switch sc.p.Kind {
	case plan.SmallWrite:
		// Read-modify-write (Figure 1) against every surviving parity
		// unit, in the plan's stage order: every stage 0 read lands before
		// the first write, so a read error leaves the stripe untouched.
		home := sc.p.Steps[0].Unit
		homeShard := s.mapper.ShardAt(home)
		if _, err := s.disks[home.Disk].ReadAt(a, s.byteOff(home, within)); err != nil {
			return fmt.Errorf("store: small write read disk %d: %w", home.Disk, err)
		}
		s.noteIO(home.Disk, false, false, len(a))
		for _, st := range sc.p.Steps[1:] {
			if st.Write {
				break
			}
			pj := sc.par[s.mapper.ShardAt(st.Unit)-k][:len(p)]
			if _, err := s.disks[st.Disk].ReadAt(pj, s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: small write read disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, false, false, len(pj))
		}
		subtle.XORBytes(a, a, p) // a = delta
		if _, err := s.disks[home.Disk].WriteAt(p, s.byteOff(home, within)); err != nil {
			return fmt.Errorf("store: small write disk %d: %w", home.Disk, err)
		}
		s.noteIO(home.Disk, true, false, len(p))
		for _, st := range sc.p.Steps {
			if !st.Write || !st.Parity {
				continue
			}
			j := s.mapper.ShardAt(st.Unit) - k
			pj := sc.par[j][:len(p)]
			s.codec.UpdateParity(j, homeShard, pj, a)
			if _, err := s.disks[st.Disk].WriteAt(pj, s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: small write disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, true, false, len(pj))
		}
		return nil

	case plan.DataOnlyWrite:
		// Every parity unit is down: write the data unit alone.
		home := sc.p.Steps[0].Unit
		if _, err := s.disks[home.Disk].WriteAt(p, s.byteOff(home, within)); err != nil {
			return fmt.Errorf("store: data-only write disk %d: %w", home.Disk, err)
		}
		s.noteIO(home.Disk, true, true, len(p))
		return nil

	case plan.ReconstructWrite:
		// Home down, every other data unit alive: each surviving parity
		// is recomputed from scratch — the payload's contribution plus
		// the surviving data's.
		homeShard := sc.p.TargetShard
		for j := 0; j < s.pm; j++ {
			pj := sc.par[j][:len(p)]
			clear(pj)
			code.MulAdd(pj, p, s.codec.Coef(j, homeShard))
		}
		for _, st := range sc.p.Steps {
			if st.Write {
				continue
			}
			if _, err := s.disks[st.Disk].ReadAt(a, s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: reconstruct write read disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, false, true, len(a))
			i := s.mapper.ShardAt(st.Unit)
			for j := 0; j < s.pm; j++ {
				code.MulAdd(sc.par[j][:len(p)], a, s.codec.Coef(j, i))
			}
		}
		for _, st := range sc.p.Steps {
			if !st.Write {
				continue
			}
			j := s.mapper.ShardAt(st.Unit) - k
			if _, err := s.disks[st.Disk].WriteAt(sc.par[j][:len(p)], s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: reconstruct write disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, true, true, len(p))
		}
		return nil

	case plan.DegradedWrite:
		// Home down along with another data unit: reconstruct the old
		// home payload from every survivor, then run the standard delta
		// update against the surviving parity units (whose old values
		// the same pass read).
		homeShard := sc.p.TargetShard
		coef := sc.coef[:k+s.pm]
		if err := s.codec.PlanReconstruct(k, sc.p.Missing, homeShard, coef); err != nil {
			return fmt.Errorf("store: degraded write: %w", err)
		}
		clear(b)
		for _, st := range sc.p.Steps {
			if st.Write {
				continue
			}
			if _, err := s.disks[st.Disk].ReadAt(a, s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: degraded write read disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, false, true, len(a))
			sh := s.mapper.ShardAt(st.Unit)
			if sh >= k {
				copy(sc.par[sh-k][:len(p)], a)
			}
			if w := coef[sh]; w != 0 {
				code.MulAdd(b, a, w)
			}
		}
		subtle.XORBytes(b, b, p) // b = old home ^ payload = delta
		for _, st := range sc.p.Steps {
			if !st.Write {
				continue
			}
			j := s.mapper.ShardAt(st.Unit) - k
			pj := sc.par[j][:len(p)]
			s.codec.UpdateParity(j, homeShard, pj, b)
			if _, err := s.disks[st.Disk].WriteAt(pj, s.byteOff(st.Unit, within)); err != nil {
				return fmt.Errorf("store: degraded write disk %d: %w", st.Disk, err)
			}
			s.noteIO(st.Disk, true, true, len(pj))
		}
		return nil

	default:
		return fmt.Errorf("store: write: unexpected plan kind %v", sc.p.Kind)
	}
}

// writeWindowLocked writes the units ws.win lists, and the caller holds
// every one of their stripes' write locks: a window of whole stripes
// with no pre-reads (the Condition 5 large-write path; ps holds its
// pieces, see window), or a rebuild chunk's lost units (ps nil, see
// rebuildStripes). Each disk's units go out in runs of consecutive
// offsets, one vectored write per run, so that a layout placing a disk's
// units of consecutive stripes side by side costs about one write per
// disk per window. A parity unit is encoded from its stripe's new data
// alone, into the next of the run's slots, when its run is assembled.
// Stats still counts one write per unit, a rebuild unit's as degraded,
// and a rebuild unit's stripe is marked rebuilt once its run has landed.
func (s *Store) writeWindowLocked(ws *windowState, ps []piece) error {
	// Bucket the units by disk, keeping stripe order within each disk:
	// afterwards disk d's units are byDisk[pos[d-1]:pos[d]].
	pos := ws.diskPos
	clear(pos)
	for _, u := range ws.win {
		pos[u.disk+1]++
	}
	for d := 1; d < len(pos); d++ {
		pos[d] += pos[d-1]
	}
	byDisk := slices.Grow(ws.byDisk[:0], len(ws.win))[:len(ws.win)]
	ws.byDisk = byDisk
	for _, u := range ws.win {
		byDisk[pos[u.disk]] = u
		pos[u.disk]++
	}
	// A run's parity units fit in slots for the most any disk holds.
	most, from := 0, 0
	for _, to := range pos[:len(pos)-1] {
		n := 0
		for _, u := range byDisk[from:to] {
			if u.buf == nil {
				n++
			}
		}
		most, from = max(most, n), to
	}
	if len(ws.slots) < most*s.unitSize {
		ws.slots = make([]byte, most*s.unitSize)
	}
	for i := 0; i < len(byDisk); {
		d, off := byDisk[i].disk, byDisk[i].off
		j := i + 1
		for j < len(byDisk) && byDisk[j].disk == d && byDisk[j].off == off+j-i {
			j++
		}
		iov, slots := ws.iov[:0], ws.slots
		for _, u := range byDisk[i:j] {
			if u.buf != nil {
				iov = append(iov, u.buf)
				continue
			}
			// Parity j is sum Coef(j, i) * data[i]: under XOR the plain XOR
			// of the payloads.
			pj := slots[:s.unitSize]
			slots = slots[s.unitSize:]
			clear(pj)
			for i, pc := range ps[u.first : u.first+u.k] {
				code.MulAdd(pj, pc.buf, s.codec.Coef(u.shard-u.k, i))
			}
			iov = append(iov, pj)
		}
		err := writeRun(s.disks[d], iov, int64(off)*int64(s.unitSize))
		clear(iov)
		ws.iov = iov[:0]
		if err != nil {
			return fmt.Errorf("store: window write disk %d: %w", d, err)
		}
		for _, u := range byDisk[i:j] {
			s.noteIO(d, true, u.rebuild, s.unitSize)
			if u.rebuild {
				s.rebuilt[u.stripe] = true
				s.rebuiltStripes.Add(1)
			}
		}
		i = j
	}
	return nil
}

// Rebuild reconstructs the lowest-numbered failed disk's bytes onto
// replacement, under the per-stripe locks, while foreground reads and
// writes continue. The replacement takes that disk's slot when Rebuild
// starts, and a rebuilt stripe is a healthy stripe: from the moment its
// lost unit is on the replacement, reads and writes of the stripe are
// served against the failed set without the rebuilt disk, so they reach
// the replacement like any other disk; stripes not yet rebuilt stay
// degraded. When every stripe is done the disk leaves the failed set.
// The replacement may be the failed disk's own backend (no plan reads a
// lost unit before Rebuild has written it), which rebuilds it in place. With several disks down
// (multi-parity codes), each Rebuild call reconstructs one disk — call it
// once per failure. A replaced backend is not closed; the caller owns it.
//
// The layout spreads a lost disk's stripes over every survivor so that
// they can be read side by side, and Rebuild does: up to min(GOMAXPROCS,
// surviving disks) workers claim chunks of rebuildChunk consecutive
// stripes. A worker write-locks its chunk's stripes in ascending lock
// index (see chunkLocks), reconstructs every stripe crossing the lost
// disk with the degraded-read executor, and has the window writer put
// them on the replacement in runs of consecutive disk offsets — on a
// declustered layout about one write per chunk, where a write per unit
// would cost the replacement a syscall per unit — marking each run's
// stripes rebuilt once it lands, then unlocks. Stats still counts one
// degraded write per unit. Rebuild is background work, though, so all
// but the first worker run only while the store is foreground-idle: one
// that sees a public read or write complete stands down until
// rebuildIdleWait passes without another, and under steady load the
// rebuild proceeds on the caller's goroutine alone (Stats.RebuildWorkers
// says how wide it is running). Any worker's error, a failed write to the
// replacement included, stops them all; Rebuild returns the first, puts
// the old backend back, and leaves the store as degraded as it was.
func (s *Store) Rebuild(replacement Backend) error {
	s.admin.Lock()
	if s.rebuilding.Load() {
		s.admin.Unlock()
		return fmt.Errorf("store: Rebuild: already in progress")
	}
	need := int64(s.mapper.DiskUnits()) * int64(s.unitSize)
	if replacement == nil || replacement.Size() < need {
		s.admin.Unlock()
		return fmt.Errorf("store: Rebuild: replacement smaller than %d bytes", need)
	}
	s.lockAll()
	fs := s.fails.Load()
	target := fs.first()
	if target < 0 {
		s.unlockAll()
		s.admin.Unlock()
		return fmt.Errorf("store: Rebuild: no failed disk")
	}
	old := s.disks[target]
	s.disks[target] = replacement
	s.rebuiltFails = fs.without(target)
	s.rebuilding.Store(true)
	s.unlockAll()
	workers := min(runtime.GOMAXPROCS(0), len(s.disks)-len(fs.disks))
	s.admin.Unlock()

	// Fan the schedule out: workers claim chunks of consecutive stripes
	// from fan.next, each streaming its stripes' plans through its own pooled
	// scratch (compile one, execute it, compile the next) into its own
	// pooled windowState, so a rebuild allocates a few objects per worker
	// whatever the array's size. The first error parks the cursor past the
	// last stripe, which stops every worker at its next claim. Worker 0, on
	// the caller's goroutine, never stands down; stop wakes the helpers
	// that have once it is through.
	stripes := int64(s.mapper.Stripes())
	var fan struct { // one allocation for what the workers share
		next atomic.Int64
		wg   sync.WaitGroup
		once sync.Once
		err  error
	}
	stop := make(chan struct{})
	work := func(helper bool) {
		defer fan.wg.Done()
		defer s.rebuildWorkers.Add(-1)
		sc := s.pool.Get().(*scratch)
		defer s.pool.Put(sc)
		ws := s.windows.Get().(*windowState)
		defer s.windows.Put(ws)
		seen := s.foregroundOps()
		for fan.next.Load() < stripes {
			if helper && s.foregroundOps() != seen {
				// Foreground traffic since the last look: stand down, and
				// come back only once a whole wait has passed without an op.
				seen = s.foregroundOps()
				s.rebuildWorkers.Add(-1)
				select {
				case <-stop:
				case <-time.After(rebuildIdleWait):
				}
				s.rebuildWorkers.Add(1)
				continue
			}
			lo := fan.next.Add(rebuildChunk) - rebuildChunk
			if lo >= stripes {
				return
			}
			if helper {
				s.helperChunks.Add(1)
			}
			if err := s.rebuildStripes(sc, ws, int(lo), int(min(lo+rebuildChunk, stripes)), target, fs.disks); err != nil {
				fan.once.Do(func() { fan.err = err })
				fan.next.Store(stripes)
				return
			}
		}
	}
	fan.wg.Add(workers)
	s.rebuildWorkers.Add(int64(workers))
	for w := 1; w < workers; w++ {
		go work(true)
	}
	work(false)
	close(stop)
	fan.wg.Wait()

	// Every worker has joined: the target leaves the failed set if they all
	// succeeded, its old backend returns if not, and rebuild state ends
	// either way.
	s.admin.Lock()
	s.lockAll()
	if fan.err == nil {
		s.fails.Store(s.rebuiltFails)
	} else {
		s.disks[target] = old
	}
	s.rebuiltFails = nil
	clear(s.rebuilt)
	s.rebuiltStripes.Store(0)
	s.rebuilding.Store(false)
	s.unlockAll()
	s.admin.Unlock()
	return fan.err
}

// foregroundOps is the number of public reads and writes completed so
// far: what the rebuild helpers watch to tell an idle store from a busy
// one, at no cost to those reads and writes.
func (s *Store) foregroundOps() int64 {
	return s.opHist[histRead].Count() + s.opHist[histWrite].Count()
}

// rebuildStripes rebuilds one chunk, stripes [lo, hi), holding every
// lock of the chunk: each stripe crossing the target disk has its lost
// unit reconstructed, as a degraded read would, into the next unit of
// ws.slots and listed in ws.win, and the window writer then writes them
// to the replacement in runs of consecutive offsets, marking each run's
// stripes rebuilt once it has landed. A run's units are adjacent in
// ws.slots, so writeRun hands them over as one buffer.
func (s *Store) rebuildStripes(sc *scratch, ws *windowState, lo, hi, target int, failed []int) error {
	s.chunkLocks(lo, hi, false)
	defer s.chunkLocks(lo, hi, true)
	if len(ws.slots) < rebuildChunk*s.unitSize {
		ws.slots = make([]byte, rebuildChunk*s.unitSize)
	}
	ws.win = ws.win[:0]
	for stripe := lo; stripe < hi; stripe++ {
		crosses, err := sc.pln.RebuildStripe(stripe, target, failed, &sc.p)
		if err != nil {
			return err
		}
		if !crosses {
			continue
		}
		n := len(ws.win)
		slot := ws.slots[n*s.unitSize : (n+1)*s.unitSize]
		if err := s.execReadLocked(sc, 0, slot); err != nil {
			return fmt.Errorf("store: rebuild stripe %d: %w", stripe, err)
		}
		ws.win = append(ws.win, windowUnit{disk: target, off: sc.p.Target.Offset, stripe: stripe, buf: slot, rebuild: true})
	}
	return s.writeWindowLocked(ws, nil)
}

// VerifyParity checks every stripe's parity invariant against the stored
// bytes, taking each stripe's read lock in turn; stripes crossing a
// currently-failed disk are skipped (their lost units are not available
// to check).
func (s *Store) VerifyParity() error {
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	for stripe := 0; stripe < s.mapper.Stripes(); stripe++ {
		if err := s.verifyStripe(sc, stripe); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) verifyStripe(sc *scratch, stripe int) error {
	lk := s.lockFor(stripe)
	lk.RLock()
	defer lk.RUnlock()
	units, err := s.mapper.AppendStripeUnits(sc.units[:0], stripe)
	sc.units = units[:0]
	if err != nil {
		return err
	}
	fs := s.failsFor(stripe)
	for _, u := range units {
		if fs.has(u.Disk) {
			return nil
		}
	}
	k := len(units) - s.pm
	a := sc.a[:s.unitSize]
	for j := 0; j < s.pm; j++ {
		clear(sc.par[j][:s.unitSize])
	}
	for _, u := range units {
		sh := s.mapper.ShardAt(u)
		if sh >= k {
			continue
		}
		if _, err := s.disks[u.Disk].ReadAt(a, s.byteOff(u, 0)); err != nil {
			return fmt.Errorf("store: verify read disk %d: %w", u.Disk, err)
		}
		for j := 0; j < s.pm; j++ {
			code.MulAdd(sc.par[j][:s.unitSize], a, s.codec.Coef(j, sh))
		}
	}
	for _, u := range units {
		sh := s.mapper.ShardAt(u)
		if sh < k {
			continue
		}
		if _, err := s.disks[u.Disk].ReadAt(a, s.byteOff(u, 0)); err != nil {
			return fmt.Errorf("store: verify read disk %d: %w", u.Disk, err)
		}
		if !bytes.Equal(a, sc.par[sh-k][:s.unitSize]) {
			return fmt.Errorf("store: stripe %d parity %d mismatch", stripe, sh-k)
		}
	}
	return nil
}
