package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/pdl/cluster"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// Target is a live system under test: unit-addressed reads and writes
// plus the geometry the workload needs. One scenario runs unchanged
// against any Target, so the same schedule file exercises an in-process
// array, a TCP endpoint, and a whole cluster.
type Target interface {
	// Name labels the target in reports ("store", "serve", "cluster").
	Name() string
	// UnitSize is the payload size of one op in bytes.
	UnitSize() int
	// Capacity is how many logical units the workload may address.
	Capacity() int
	// Read fills dst (UnitSize bytes) from the logical unit, on the
	// background class when background is set and the target has one.
	Read(logical int, dst []byte, background bool) error
	// Write stores src (UnitSize bytes) to the logical unit.
	Write(logical int, src []byte, background bool) error
}

// FaultInjector is implemented by targets whose disks the schedule can
// fail and rebuild. Single-array targets require shard 0.
type FaultInjector interface {
	FailDisk(shard, disk int) error
	// RebuildDisk rebuilds shard's lowest failed disk onto a fresh
	// replacement, blocking until done.
	RebuildDisk(shard int) error
}

// ShardController is implemented by targets whose serving processes the
// schedule can kill and revive (cluster targets).
type ShardController interface {
	KillShard(shard int) error
	RestartShard(shard int) error
}

// HealthReporter is implemented by targets that can answer the
// RequireHealthy SLO clause.
type HealthReporter interface {
	// FailedDisks counts currently-failed disks across every shard.
	FailedDisks() (int, error)
}

// oneShard rejects a shard index on a single-array target.
func oneShard(target string, shard int) error {
	if shard != 0 {
		return fmt.Errorf("scenario: %s target has one array; shard %d does not exist", target, shard)
	}
	return nil
}

// rebuild rebuilds s's lowest failed disk onto a fresh in-memory spare
// and closes the backend that the rebuild displaced, which the caller
// owns. If Rebuild fails, the old backend is back in its slot and stays.
func rebuild(s *store.Store) error {
	failed := s.FailedDisks()
	if len(failed) == 0 {
		return errors.New("scenario: rebuild: no failed disk")
	}
	old := s.DiskBackend(failed[0])
	rep := store.NewMemDisk(int64(s.Mapper().DiskUnits()) * int64(s.UnitSize()))
	if err := s.Rebuild(rep); err != nil {
		rep.Close()
		return err
	}
	return old.Close()
}

// StoreTarget runs scenarios against a bare store.Store — the fastest
// target, with no batching or network between the workload and the
// array. It has no priority classes; background ops share the same
// path.
type StoreTarget struct {
	S *store.Store
}

func (t *StoreTarget) Name() string  { return "store" }
func (t *StoreTarget) UnitSize() int { return t.S.UnitSize() }
func (t *StoreTarget) Capacity() int { return t.S.Capacity() }

func (t *StoreTarget) Read(logical int, dst []byte, _ bool) error {
	return t.S.Read(logical, dst)
}

func (t *StoreTarget) Write(logical int, src []byte, _ bool) error {
	return t.S.Write(logical, src)
}

func (t *StoreTarget) FailDisk(shard, disk int) error {
	if err := oneShard("store", shard); err != nil {
		return err
	}
	return t.S.Fail(disk)
}

func (t *StoreTarget) RebuildDisk(shard int) error {
	if err := oneShard("store", shard); err != nil {
		return err
	}
	return rebuild(t.S)
}

func (t *StoreTarget) FailedDisks() (int, error) {
	return len(t.S.FailedDisks()), nil
}

// FrontendTarget runs scenarios through a serve.Frontend: ops ride the
// batching queues with real priority classes, but no network.
type FrontendTarget struct {
	F *serve.Frontend
}

func (t *FrontendTarget) Name() string  { return "frontend" }
func (t *FrontendTarget) UnitSize() int { return t.F.Store().UnitSize() }
func (t *FrontendTarget) Capacity() int { return t.F.Store().Capacity() }

func (t *FrontendTarget) do(kind serve.Kind, logical int, buf []byte, background bool) error {
	class := serve.Foreground
	if background {
		class = serve.Background
	}
	return t.F.Do(context.Background(), serve.Op{Kind: kind, Class: class, Logical: logical, Buf: buf})
}

func (t *FrontendTarget) Read(logical int, dst []byte, background bool) error {
	return t.do(serve.Read, logical, dst, background)
}

func (t *FrontendTarget) Write(logical int, src []byte, background bool) error {
	return t.do(serve.Write, logical, src, background)
}

func (t *FrontendTarget) FailDisk(shard, disk int) error {
	if err := oneShard("frontend", shard); err != nil {
		return err
	}
	return t.F.Store().Fail(disk)
}

func (t *FrontendTarget) RebuildDisk(shard int) error {
	if err := oneShard("frontend", shard); err != nil {
		return err
	}
	return rebuild(t.F.Store())
}

func (t *FrontendTarget) FailedDisks() (int, error) {
	return len(t.F.Store().FailedDisks()), nil
}

// ClientTarget runs scenarios against a pdlserve TCP endpoint through
// a serve.Client: the full wire path. Fail and rebuild ride the admin
// opcodes.
type ClientTarget struct {
	C *serve.Client
}

func (t *ClientTarget) Name() string  { return "serve" }
func (t *ClientTarget) UnitSize() int { return t.C.UnitSize() }
func (t *ClientTarget) Capacity() int { return t.C.Capacity() }

func classOf(background bool) serve.Class {
	if background {
		return serve.Background
	}
	return serve.Foreground
}

func (t *ClientTarget) Read(logical int, dst []byte, background bool) error {
	return t.C.ReadClass(logical, dst, classOf(background))
}

func (t *ClientTarget) Write(logical int, src []byte, background bool) error {
	return t.C.WriteClass(logical, src, classOf(background))
}

func (t *ClientTarget) FailDisk(shard, disk int) error {
	if err := oneShard("serve", shard); err != nil {
		return err
	}
	return t.C.Fail(disk)
}

func (t *ClientTarget) RebuildDisk(shard int) error {
	if err := oneShard("serve", shard); err != nil {
		return err
	}
	return t.C.Rebuild()
}

func (t *ClientTarget) FailedDisks() (int, error) {
	st, err := t.C.Stats()
	if err != nil {
		return 0, err
	}
	return len(st.Store.FailedDisks), nil
}

// ClusterTarget runs scenarios against a sharded namespace through a
// cluster.Client. Each engine op moves Unit bytes at a Unit-aligned
// offset; choosing a Unit that is not a multiple of the manifest's
// shard-unit makes ops span shard boundaries, which is exactly the
// hard case; a Unit that is not a multiple of the shards' array unit
// makes concurrent workers share array units, whose partial writes each
// shard applies under its stripe lock. Fail/rebuild events dial the addressed shard from the manifest and
// ride pdlserve's admin opcodes; kill/restart delegate to the
// OnKill/OnRestart hooks, which own the shard processes (in tests, the
// self-hosted harness; in a deployment, whatever supervises the
// shards).
type ClusterTarget struct {
	C *cluster.Client

	// Unit is the bytes one op moves; NewClusterTarget defaults it to
	// the manifest's shard-unit size.
	Unit int64

	// OnKill and OnRestart implement ActKill/ActRestart; a nil hook
	// fails the event.
	OnKill, OnRestart func(shard int) error

	mu    sync.Mutex
	admin map[int]*serve.Client
}

// NewClusterTarget wraps an open cluster client. unit <= 0 defaults to
// the manifest's shard-unit size.
func NewClusterTarget(c *cluster.Client, unit int64) *ClusterTarget {
	if unit <= 0 {
		unit = c.UnitBytes()
	}
	return &ClusterTarget{C: c, Unit: unit, admin: make(map[int]*serve.Client)}
}

func (t *ClusterTarget) Name() string  { return "cluster" }
func (t *ClusterTarget) UnitSize() int { return int(t.Unit) }
func (t *ClusterTarget) Capacity() int { return int(t.C.Size() / t.Unit) }

func (t *ClusterTarget) Read(logical int, dst []byte, background bool) error {
	n, err := t.C.ReadAtClass(dst, int64(logical)*t.Unit, classOf(background))
	if err == nil && n != len(dst) {
		return fmt.Errorf("scenario: cluster read at unit %d: short read %d of %d", logical, n, len(dst))
	}
	return err
}

func (t *ClusterTarget) Write(logical int, src []byte, background bool) error {
	n, err := t.C.WriteAtClass(src, int64(logical)*t.Unit, classOf(background))
	if err == nil && n != len(src) {
		return fmt.Errorf("scenario: cluster write at unit %d: short write %d of %d", logical, n, len(src))
	}
	return err
}

// shardAdmin returns a cached admin connection to the shard's address.
func (t *ClusterTarget) shardAdmin(shard int) (*serve.Client, error) {
	man := t.C.Manifest()
	if shard < 0 || shard >= len(man.Shards) {
		return nil, fmt.Errorf("scenario: cluster has %d shards; shard %d does not exist", len(man.Shards), shard)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.admin[shard]; ok {
		return c, nil
	}
	c, err := serve.Dial(man.Shards[shard].Addr, serve.WithConns(1))
	if err != nil {
		return nil, fmt.Errorf("scenario: dial shard %d admin: %w", shard, err)
	}
	t.admin[shard] = c
	return c, nil
}

// dropAdmin closes and forgets the cached admin connection to shard —
// called around kill/restart, whose whole point is severing that TCP.
func (t *ClusterTarget) dropAdmin(shard int) {
	t.mu.Lock()
	c := t.admin[shard]
	delete(t.admin, shard)
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (t *ClusterTarget) FailDisk(shard, disk int) error {
	c, err := t.shardAdmin(shard)
	if err != nil {
		return err
	}
	return c.Fail(disk)
}

func (t *ClusterTarget) RebuildDisk(shard int) error {
	c, err := t.shardAdmin(shard)
	if err != nil {
		return err
	}
	return c.Rebuild()
}

func (t *ClusterTarget) KillShard(shard int) error {
	if t.OnKill == nil {
		return fmt.Errorf("scenario: cluster target has no kill hook for shard %d", shard)
	}
	t.dropAdmin(shard)
	return t.OnKill(shard)
}

func (t *ClusterTarget) RestartShard(shard int) error {
	if t.OnRestart == nil {
		return fmt.Errorf("scenario: cluster target has no restart hook for shard %d", shard)
	}
	t.dropAdmin(shard)
	return t.OnRestart(shard)
}

func (t *ClusterTarget) FailedDisks() (int, error) {
	total := 0
	for s := 0; s < t.C.Shards(); s++ {
		c, err := t.shardAdmin(s)
		if err != nil {
			return 0, err
		}
		st, err := c.Stats()
		if err != nil {
			return 0, err
		}
		total += len(st.Store.FailedDisks)
	}
	return total, nil
}

// Close releases the target's cached admin connections (not the
// cluster client itself, which the caller owns).
func (t *ClusterTarget) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, c := range t.admin {
		c.Close()
		delete(t.admin, s)
	}
	return nil
}
