// Package array makes a parity-declustered disk array durable: one
// directory holds the layout (layout.json), a versioned manifest
// (array.json) recording construction parameters, geometry, and per-disk
// state, and one file per disk. Create provisions a fresh array, Open
// reopens it onto a pdl/store Store over the backend of your choice
// (FileDisk or MmapDisk), and Fail/Rebuild persist the degraded and
// rebuilt states through Sync's atomic write-temp-then-rename — so a
// process crash never tears the manifest and a restart never forgets a
// scrubbed disk.
//
// Crash ordering: every state transition orders its steps so a crash
// between any two of them reopens safely. Rebuild writes the
// reconstructed bytes in place into the failed disk's own file, syncs
// that file, and flips the manifest last: a crash mid-rebuild leaves a
// file of partly rebuilt bytes that the manifest still calls failed, so
// a restart serves it degraded — correct, just slower — until the next
// Rebuild rewrites it. Fail records the failure first and scrubs last (a
// recorded-but-unscrubbed disk is served degraded with its bytes intact;
// the reverse order could serve scrubbed zeros as healthy data after a
// restart), and Open re-sizes a failed disk's file that a crash inside
// the scrub left short.
//
// The directory format belongs to this package: tools use DiskPath and
// the manifest instead of deriving file names, so a future format bump
// happens in exactly one place.
package array

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/store"
)

// ErrVersion reports a manifest written by a newer format than this
// build reads; it supports errors.Is.
var ErrVersion = errors.New("unsupported manifest format version")

// BackendKind selects the per-disk Backend Open builds.
type BackendKind string

const (
	// File serves disks over positioned file I/O (store.FileDisk).
	File BackendKind = "file"

	// Mmap serves disks over memory-mapped files (store.MmapDisk; a
	// FileDisk fallback on platforms without the mapping).
	Mmap BackendKind = "mmap"
)

// ParseBackend converts a command-line spelling into a BackendKind.
func ParseBackend(s string) (BackendKind, error) {
	switch BackendKind(s) {
	case File, Mmap:
		return BackendKind(s), nil
	}
	return "", fmt.Errorf("array: unknown backend %q (want %q or %q)", s, File, Mmap)
}

// CreateOptions parameterizes Create. V and K are required; the zero
// value of every other field selects a default.
type CreateOptions struct {
	// V is the number of disks; K the parity stripe size.
	V, K int

	// Copies is the number of layout copies per disk (default 1).
	Copies int

	// UnitSize is the stripe-unit payload size in bytes (default 4096).
	UnitSize int

	// Method pins a construction method; empty picks automatically.
	Method string

	// Backend selects the backend the returned array serves from
	// (default File).
	Backend BackendKind

	// ParityShards is the number of parity units per stripe (m): the
	// simultaneous disk failures the array tolerates. 0 and 1 both build
	// the classic single-parity XOR array; m >= 2 runs the default
	// m-failure code (Reed–Solomon) over the declustered placement.
	ParityShards int
}

// OpenOption tunes Open.
type OpenOption func(*openConfig)

type openConfig struct {
	backend BackendKind
}

// WithBackend selects the Backend implementation serving each disk file
// (default File).
func WithBackend(k BackendKind) OpenOption {
	return func(c *openConfig) { c.backend = k }
}

// Array is an open durable array: a pdl/store Store over the directory's
// disk files plus the manifest tracking its persistent state. Fail,
// Rebuild, Sync, and Close are serialized with each other; the Store's
// data path stays fully concurrent.
type Array struct {
	dir     string
	backend BackendKind

	mu  sync.Mutex
	man *Manifest
	s   *store.Store
}

// diskFileName is the canonical disk file name for new arrays. Open
// trusts the manifest, not this pattern: renaming here is a format bump.
func diskFileName(d int) string { return fmt.Sprintf("disk%02d.dat", d) }

// rebuildSuffix marks the staging file that older builds streamed a
// rebuild onto before renaming it over the failed disk's file. Rebuild
// now writes in place; Open still removes a leftover one.
const rebuildSuffix = ".rebuild"

// writebackEvery is how often Rebuild starts writeback of the disk it is
// rebuilding, so that the closing sync overlaps the reconstruction
// instead of following it.
const writebackEvery = 5 * time.Millisecond

// syncResult passes on the error of a rebuilt disk's sync; the package's
// tests replace it to make the sync fail.
var syncResult = func(err error) error { return err }

// Create provisions dir as a fresh array: build the layout, write
// layout.json and the zeroed disk files, commit the manifest, and open
// the result. It refuses a directory that already holds an array.
func Create(dir string, opts CreateOptions) (*Array, error) {
	if opts.Copies == 0 {
		opts.Copies = 1
	}
	if opts.UnitSize == 0 {
		opts.UnitSize = 4096
	}
	if opts.Backend == "" {
		opts.Backend = File
	}
	if opts.Copies < 1 {
		return nil, fmt.Errorf("array: Create: copies %d < 1", opts.Copies)
	}
	if opts.UnitSize < 1 {
		return nil, fmt.Errorf("array: Create: unit size %d < 1", opts.UnitSize)
	}
	if _, err := ParseBackend(string(opts.Backend)); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("array: Create: %s already holds an array", dir)
	}
	var bopts []pdl.Option
	if opts.Method != "" {
		bopts = append(bopts, pdl.WithMethod(opts.Method))
	}
	if opts.ParityShards > 1 {
		bopts = append(bopts, pdl.WithParityShards(opts.ParityShards))
	}
	res, err := pdl.Build(opts.V, opts.K, bopts...)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lf, err := os.Create(filepath.Join(dir, LayoutName))
	if err != nil {
		return nil, err
	}
	if err := res.Layout.WriteJSON(lf); err != nil {
		lf.Close()
		return nil, err
	}
	if err := lf.Close(); err != nil {
		return nil, err
	}
	man := &Manifest{
		Version:      FormatVersion,
		Method:       res.Method,
		V:            opts.V,
		K:            opts.K,
		UnitSize:     opts.UnitSize,
		DiskUnits:    opts.Copies * res.Layout.Size,
		ParityShards: opts.ParityShards,
		Disks:        make([]DiskInfo, opts.V),
	}
	diskBytes := int64(man.DiskUnits) * int64(man.UnitSize)
	for d := 0; d < opts.V; d++ {
		man.Disks[d] = DiskInfo{File: diskFileName(d), State: DiskHealthy}
		fd, err := store.CreateFileDisk(filepath.Join(dir, man.Disks[d].File), diskBytes)
		if err != nil {
			return nil, err
		}
		if err := fd.Close(); err != nil {
			return nil, err
		}
	}
	// The manifest lands last: a crash mid-Create leaves a directory Open
	// rejects (no array.json) instead of a half-provisioned "array".
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	return Open(dir, WithBackend(opts.Backend))
}

// Open reopens the array in dir: manifest, layout, one Backend per disk
// file, and the persisted failure state applied to the Store. Crash
// leftovers are repaired: a torn manifest staging file and an older
// build's rebuild staging file are removed, and a failed disk's file is
// re-sized to the disk size (its bytes are scrubbed by definition, but a
// crash inside Fail's scrub can leave it short).
func Open(dir string, opts ...OpenOption) (*Array, error) {
	cfg := openConfig{backend: File}
	for _, o := range opts {
		o(&cfg)
	}
	if _, err := ParseBackend(string(cfg.backend)); err != nil {
		return nil, err
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	// A leftover staging manifest lost the race to the rename; the real
	// array.json just decoded is authoritative. Same for an older build's
	// rebuild staging files: an interrupted rebuild never renamed over the
	// scrubbed disk, so the manifest still says failed and the staging
	// bytes are stale.
	os.Remove(filepath.Join(dir, manifestTmp))
	for d := range man.Disks {
		os.Remove(filepath.Join(dir, man.Disks[d].File+rebuildSuffix))
	}
	for _, d := range man.FailedDisks() {
		if err := os.Truncate(filepath.Join(dir, man.Disks[d].File), int64(man.DiskUnits)*int64(man.UnitSize)); err != nil {
			return nil, fmt.Errorf("array: Open: re-size failed disk %d: %w", d, err)
		}
	}
	lf, err := os.Open(filepath.Join(dir, LayoutName))
	if err != nil {
		return nil, err
	}
	l, err := layout.ReadJSON(lf)
	lf.Close()
	if err != nil {
		return nil, err
	}
	if l.V != man.V {
		return nil, fmt.Errorf("array: Open: layout has %d disks, manifest says %d", l.V, man.V)
	}
	if l.Size < 1 || man.DiskUnits%l.Size != 0 {
		return nil, fmt.Errorf("array: Open: disk units %d not a multiple of layout size %d", man.DiskUnits, l.Size)
	}
	mapper, err := pdl.NewMapper(l, man.DiskUnits)
	if err != nil {
		return nil, err
	}
	backends := make([]store.Backend, man.V)
	closeAll := func() {
		for _, b := range backends {
			if b != nil {
				b.Close()
			}
		}
	}
	for d := range backends {
		path := filepath.Join(dir, man.Disks[d].File)
		var b store.Backend
		switch cfg.backend {
		case Mmap:
			b, err = store.OpenMmapDisk(path)
		default:
			b, err = store.OpenFileDisk(path)
		}
		if err != nil {
			closeAll()
			return nil, err
		}
		backends[d] = b
	}
	c, err := man.Code()
	if err != nil {
		closeAll()
		return nil, err
	}
	s, err := store.NewCode(mapper, man.UnitSize, backends, c)
	if err != nil {
		closeAll()
		return nil, err
	}
	for _, f := range man.FailedDisks() {
		if err := s.Fail(f); err != nil {
			s.Close()
			return nil, err
		}
	}
	return &Array{dir: dir, backend: cfg.backend, man: man, s: s}, nil
}

// Store returns the byte engine serving the array.
func (a *Array) Store() *store.Store { return a.s }

// Dir returns the array directory.
func (a *Array) Dir() string { return a.dir }

// Backend returns the BackendKind serving the disk files.
func (a *Array) Backend() BackendKind { return a.backend }

// Manifest returns a copy of the current manifest.
func (a *Array) Manifest() *Manifest {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.man.clone()
}

// DiskPath returns disk d's file path. The manifest owns naming; this is
// the only supported way to locate a disk file.
func (a *Array) DiskPath(d int) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.man.Disks) {
		return "", fmt.Errorf("array: DiskPath(%d): disk outside [0,%d)", d, len(a.man.Disks))
	}
	return filepath.Join(a.dir, a.man.Disks[d].File), nil
}

// Sync atomically rewrites the manifest. Fail and Rebuild sync
// themselves; call it directly only after mutating state by other means.
func (a *Array) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return writeManifest(a.dir, a.man)
}

// Fail marks disk d failed and makes it true on disk: the store stops
// reading the disk, the disk file is scrubbed (its bytes are genuinely
// gone — everything served afterwards comes from survivor
// reconstruction), and the manifest records the failure so a restart
// reopens degraded instead of serving scrubbed zeros as data. An array
// with m parity shards tolerates up to m simultaneous failures.
func (a *Array) Fail(d int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.s.Fail(d); err != nil {
		return err
	}
	// The failure is recorded BEFORE the scrub: if we crash (or the
	// manifest write fails) between the two, a restart serves the disk
	// degraded with its bytes still intact — safe. Scrub-then-record
	// would open a window where a restart reads scrubbed zeros as
	// healthy data.
	a.man.Disks[d].State = DiskFailed
	if err := writeManifest(a.dir, a.man); err != nil {
		a.man.Disks[d].State = DiskHealthy
		return err
	}
	// The store has quiesced the disk: no plan reads or writes it now, so
	// truncating the file under the still-open backend is safe (the
	// backend is next written by Rebuild, which rewrites it in place).
	path := filepath.Join(a.dir, a.man.Disks[d].File)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	scrub, err := store.CreateFileDisk(path, st.Size())
	if err != nil {
		return err
	}
	return scrub.Close()
}

// Rebuild reconstructs the lowest-numbered failed disk from the
// survivors in place — into the disk's own scrubbed file, through the
// backend already open on it — syncs the file, and only then records the
// disk rebuilt, all while foreground traffic continues degraded (the
// store's online rebuild). Writeback of the file starts while the
// reconstruction runs, so the sync mostly waits on what is left. On a
// rebuild or sync error the manifest still says failed and the store
// still serves the disk degraded, so the next Rebuild retries it. With
// several disks down, call it once per failure. It returns the duration
// of the reconstruction and the sync.
func (a *Array) Rebuild() (time.Duration, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	failed := a.man.Failed()
	if failed < 0 {
		return 0, fmt.Errorf("array: Rebuild: no failed disk")
	}
	disk := a.s.DiskBackend(failed)
	var fd uintptr
	var flush func() error
	switch d := disk.(type) {
	case *store.FileDisk:
		fd, flush = d.File().Fd(), d.File().Sync
	case *store.MmapDisk:
		fd, flush = d.File().Fd(), d.Flush
	default:
		return 0, fmt.Errorf("array: Rebuild: disk %d is served by a %T, not a disk file", failed, disk)
	}
	start := time.Now()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(writebackEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				startWriteback(fd)
			}
		}
	}()
	err := a.s.Rebuild(disk)
	close(stop)
	<-stopped
	if err != nil {
		return 0, err
	}
	if err := syncResult(flush()); err != nil {
		// The store already serves the disk as healthy, but its bytes are
		// not durable and the manifest still says failed: fail it in the
		// store again so the two agree, and the next Rebuild rewrites it.
		err = fmt.Errorf("array: Rebuild: sync disk %d: %w", failed, err)
		return time.Since(start), errors.Join(err, a.s.Fail(failed))
	}
	elapsed := time.Since(start)
	a.man.Disks[failed].State = DiskRebuilt
	return elapsed, writeManifest(a.dir, a.man)
}

// Close closes the store and every backend. The manifest is already
// durable (every mutation synced itself), so Close writes nothing.
func (a *Array) Close() error { return a.s.Close() }
