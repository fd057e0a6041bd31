package array

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/pdl/code"
)

// FormatVersion is the newest manifest format this package reads and
// writes. Version 2 added the erasure-code fields (codec, parity_shards);
// arrays using the classic defaults are still written as version 1, so
// older binaries keep reading them. Open rejects manifests from a newer
// format with ErrVersion rather than guessing; a future format bump reads
// old versions here, in one place.
const FormatVersion = 2

// ManifestName is the manifest file inside an array directory.
const ManifestName = "array.json"

// LayoutName is the layout file inside an array directory.
const LayoutName = "layout.json"

// manifestTmp is the staging name Sync writes before the atomic rename;
// a crash mid-Sync leaves it behind and Open ignores it.
const manifestTmp = ManifestName + ".tmp"

// DiskState is one disk's recorded condition.
type DiskState string

const (
	// DiskHealthy serves its own bytes.
	DiskHealthy DiskState = "healthy"

	// DiskFailed has lost its bytes (the file is scrubbed): its units are
	// reconstructed from the survivors until a rebuild completes.
	DiskFailed DiskState = "failed"

	// DiskRebuilt serves its own bytes again after a completed rebuild —
	// healthy, with its history recorded.
	DiskRebuilt DiskState = "rebuilt"
)

// DiskInfo is one disk's manifest entry.
type DiskInfo struct {
	// File is the disk's file name inside the array directory. The
	// manifest owns naming: tools never derive disk paths themselves.
	File string `json:"file"`

	// State is the disk's recorded condition.
	State DiskState `json:"state"`
}

// Manifest is the decoded array.json: everything needed to reopen an
// array directory — layout construction parameters, geometry, and
// per-disk state — with a format version first so future formats stay
// recognizable.
type Manifest struct {
	// Version is the manifest format version (FormatVersion when written
	// by this package).
	Version int `json:"version"`

	// Method names the construction that built the layout (informational;
	// the layout itself is read from layout.json).
	Method string `json:"method"`

	// V and K echo the build parameters: array size and parity stripe size.
	V int `json:"v"`
	K int `json:"k"`

	// UnitSize is the stripe-unit payload size in bytes.
	UnitSize int `json:"unit_size"`

	// DiskUnits is each disk's size in units (a multiple of the layout
	// size: the layout-copies factor is DiskUnits/Layout.Size).
	DiskUnits int `json:"disk_units"`

	// Codec names the erasure code governing parity bytes (a
	// repro/pdl/code name). Empty selects the default for ParityShards:
	// "xor" for single parity, "rs" beyond. Format version 2.
	Codec string `json:"codec,omitempty"`

	// ParityShards is the number of parity units per stripe (m): the
	// simultaneous disk failures the array tolerates. 0 and 1 both mean
	// the classic single-parity array. Format version 2.
	ParityShards int `json:"parity_shards,omitempty"`

	// Disks holds one entry per disk, indexed by disk number.
	Disks []DiskInfo `json:"disks"`
}

// parityShards returns the effective parity count (0 reads as the
// classic single parity).
func (m *Manifest) parityShards() int {
	if m.ParityShards < 1 {
		return 1
	}
	return m.ParityShards
}

// Code builds the erasure code the manifest declares: the named codec,
// or the default for the parity count when Codec is empty.
func (m *Manifest) Code() (code.Code, error) {
	if m.Codec == "" {
		return code.Default(m.parityShards()), nil
	}
	return code.New(m.Codec, m.parityShards())
}

// FailedDisks returns every failed disk in increasing order (nil when
// none). DecodeManifest bounds the count by the array's parity shards.
func (m *Manifest) FailedDisks() []int {
	var out []int
	for d := range m.Disks {
		if m.Disks[d].State == DiskFailed {
			out = append(out, d)
		}
	}
	return out
}

// clone returns a deep copy.
func (m *Manifest) clone() *Manifest {
	out := *m
	out.Disks = append([]DiskInfo(nil), m.Disks...)
	return &out
}

// DecodeManifest parses and validates a manifest. It never panics on
// hostile input: truncated, type-skewed, or out-of-range documents return
// errors (FuzzOpenManifest pins this). Version skew beyond FormatVersion
// is ErrVersion.
func DecodeManifest(b []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("array: manifest: %w", err)
	}
	if m.Version < 1 {
		return nil, fmt.Errorf("array: manifest: bad version %d", m.Version)
	}
	if m.Version > FormatVersion {
		return nil, fmt.Errorf("array: manifest: %w: format %d, this build reads <= %d", ErrVersion, m.Version, FormatVersion)
	}
	if m.V < 2 {
		return nil, fmt.Errorf("array: manifest: v=%d, want >= 2", m.V)
	}
	if m.K < 2 || m.K > m.V {
		return nil, fmt.Errorf("array: manifest: k=%d outside [2,%d]", m.K, m.V)
	}
	if m.UnitSize < 1 {
		return nil, fmt.Errorf("array: manifest: unit size %d < 1", m.UnitSize)
	}
	if m.DiskUnits < 1 {
		return nil, fmt.Errorf("array: manifest: disk units %d < 1", m.DiskUnits)
	}
	if int64(m.DiskUnits)*int64(m.UnitSize) > 1<<56 {
		return nil, fmt.Errorf("array: manifest: disk of %d x %d bytes implausibly large", m.DiskUnits, m.UnitSize)
	}
	if m.ParityShards < 0 || m.ParityShards > code.MaxParityShards {
		return nil, fmt.Errorf("array: manifest: parity shards %d outside [0,%d]", m.ParityShards, code.MaxParityShards)
	}
	if m.ParityShards >= m.K {
		return nil, fmt.Errorf("array: manifest: %d parity shards leave no data units in a stripe of %d", m.ParityShards, m.K)
	}
	if m.Version < 2 && (m.ParityShards > 1 || (m.Codec != "" && m.Codec != "xor")) {
		return nil, fmt.Errorf("array: manifest: version %d cannot carry codec %q with %d parity shards (format 2 fields)", m.Version, m.Codec, m.ParityShards)
	}
	if _, err := m.Code(); err != nil {
		return nil, fmt.Errorf("array: manifest: %w", err)
	}
	if len(m.Disks) != m.V {
		return nil, fmt.Errorf("array: manifest: %d disk entries for v=%d", len(m.Disks), m.V)
	}
	var failed []int
	seen := make(map[string]int, len(m.Disks))
	for d := range m.Disks {
		e := &m.Disks[d]
		// Disk files must be plain names inside the array directory: a
		// hostile manifest must not reach outside it.
		if e.File == "" || e.File != filepath.Base(e.File) || e.File == "." || e.File == ".." ||
			strings.ContainsAny(e.File, `/\`) {
			return nil, fmt.Errorf("array: manifest: disk %d: bad file name %q", d, e.File)
		}
		// And they must be distinct: two disks over one file would
		// silently clobber each other's bytes.
		if prev, dup := seen[e.File]; dup {
			return nil, fmt.Errorf("array: manifest: disks %d and %d share file %q", prev, d, e.File)
		}
		seen[e.File] = d
		switch e.State {
		case DiskHealthy, DiskRebuilt:
		case DiskFailed:
			if len(failed) >= m.parityShards() {
				return nil, fmt.Errorf("array: manifest: disks %v and %d failed, but %d parity shards tolerate only %d", failed, d, m.parityShards(), m.parityShards())
			}
			failed = append(failed, d)
		default:
			return nil, fmt.Errorf("array: manifest: disk %d: unknown state %q", d, e.State)
		}
	}
	return m, nil
}

// encode renders the manifest as the canonical on-disk JSON, stamping
// the oldest format version able to represent it: arrays on the classic
// single-parity defaults stay version 1, readable by older binaries.
func (m *Manifest) encode() ([]byte, error) {
	out := *m
	if out.ParityShards > 1 || out.Codec != "" {
		out.Version = 2
	} else {
		out.Version = 1
	}
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("array: manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// writeManifest atomically replaces dir's manifest: write the staging
// file, then rename over array.json, so a process crash at any point
// leaves either the old or the new manifest — never a torn one. Neither
// the file nor the directory is fsynced, so a power loss can still lose
// or tear the update.
func writeManifest(dir string, m *Manifest) error {
	b, err := m.encode()
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestTmp)
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
}
