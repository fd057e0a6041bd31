// Command pdlstore drives the pdl/store byte-serving engine end-to-end
// over a durable file-backed disk array (see pdl/store/array): create an
// array, write and read bytes, fail a disk (really scrubbing its file,
// with the failure persisted in the array manifest), serve degraded,
// rebuild the lost disk from survivor XOR, verify parity, and drive a
// seeded workload at it (loadgen: a one-phase pdl/scenario run built
// from the flags pdlserve and pdlcluster also take, see
// cmd/internal/loadgen; it restores the array's contents afterwards, and
// what it prints is a smoke check, not a benchmark).
//
// Usage:
//
//	pdlstore init -dir a17 -v 17 -k 4 -copies 4 -unit 4096
//	pdlstore write -dir a17 -at 0 -data 'hello declustered world'
//	pdlstore read -dir a17 -at 0 -n 23
//	pdlstore fail -dir a17 -disk 3
//	pdlstore read -dir a17 -at 0 -n 23        # served degraded
//	pdlstore rebuild -dir a17
//	pdlstore verify -dir a17
//	pdlstore loadgen -dir a17 -backend mmap -duration 1s
//
// Every subcommand takes -backend file|mmap to pick the per-disk
// Backend; the array directory format is backend-agnostic, so the same
// array can be served either way (or by `pdlserve serve -dir`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/loadgen"
	"repro/cmd/internal/units"
	"repro/pdl/code"
	"repro/pdl/scenario"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

func main() {
	if len(os.Args) < 2 {
		die(fmt.Errorf("usage: pdlstore <init|write|read|fail|rebuild|verify|loadgen> [flags]"))
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "write":
		err = cmdWrite(args)
	case "read":
		err = cmdRead(args)
	case "fail":
		err = cmdFail(args)
	case "rebuild":
		err = cmdRebuild(args)
	case "verify":
		err = cmdVerify(args)
	case "loadgen":
		err = cmdLoadgen(args)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "pdlstore:", err)
	os.Exit(1)
}

// addBackendFlag registers the shared -backend flag.
func addBackendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", string(array.File), "per-disk backend: file|mmap")
}

// openArray opens dir with the selected backend.
func openArray(dir, backend string) (*array.Array, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir required")
	}
	kind, err := array.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	return array.Open(dir, array.WithBackend(kind))
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory (created)")
	v := fs.Int("v", 17, "number of disks")
	k := fs.Int("k", 4, "parity stripe size")
	copies := fs.Int("copies", 1, "layout copies per disk")
	unit := fs.Int("unit", 4096, "unit size in bytes")
	method := fs.String("method", "", "construction method (default: automatic)")
	parity := fs.Int("parity", 1, "parity shards per stripe (1 = XOR, >1 = Reed-Solomon, tolerating that many disk failures)")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("init: -dir required")
	}
	kind, err := array.ParseBackend(*backend)
	if err != nil {
		return err
	}
	arr, err := array.Create(*dir, array.CreateOptions{
		V: *v, K: *k, Copies: *copies, UnitSize: *unit, Method: *method, Backend: kind,
		ParityShards: *parity,
	})
	if err != nil {
		return err
	}
	defer arr.Close()
	m := arr.Manifest()
	c := arr.Store().Code()
	fmt.Printf("initialized %s: method %s, codec %s/%d, %d disks x %d units x %d B (logical capacity %d B)\n",
		*dir, m.Method, c.Name(), c.ParityShards(), m.V, m.DiskUnits, m.UnitSize, arr.Store().Size())
	return nil
}

func cmdWrite(args []string) error {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	at := fs.Int64("at", 0, "logical byte offset")
	data := fs.String("data", "", "literal bytes to write")
	file := fs.String("file", "", "file to write (default stdin when -data empty)")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	var p []byte
	switch {
	case *data != "":
		p = []byte(*data)
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		p = b
	default:
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		p = b
	}
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	n, err := arr.Store().WriteAt(p, *at)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes at %d%s\n", n, *at, degradedTag(arr.Store()))
	return nil
}

func cmdRead(args []string) error {
	fs := flag.NewFlagSet("read", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	at := fs.Int64("at", 0, "logical byte offset")
	n := fs.Int("n", 0, "bytes to read (0 = to end)")
	out := fs.String("o", "", "output file (default stdout)")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	s := arr.Store()
	if *at < 0 || *at >= s.Size() {
		return fmt.Errorf("read: offset %d outside store of %d bytes", *at, s.Size())
	}
	count := int64(*n)
	if count <= 0 || count > s.Size()-*at {
		count = s.Size() - *at
	}
	p := make([]byte, count)
	read, err := s.ReadAt(p, *at)
	if err != nil && err != io.EOF {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(p[:read]); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "read %d bytes at %d%s\n", read, *at, degradedTag(s))
	return nil
}

func degradedTag(s *store.Store) string {
	switch failed := s.FailedDisks(); len(failed) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf(" (degraded: disk %d down)", failed[0])
	default:
		return fmt.Sprintf(" (degraded: disks %v down)", failed)
	}
}

func cmdFail(args []string) error {
	fs := flag.NewFlagSet("fail", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	disk := fs.Int("disk", -1, "disk to fail")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	if *disk < 0 {
		return fmt.Errorf("fail: -disk required")
	}
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	// array.Fail scrubs the disk file and persists the failure in the
	// manifest, so a restart keeps serving degraded instead of reading
	// scrubbed zeros as data.
	if err := arr.Fail(*disk); err != nil {
		return err
	}
	fmt.Printf("disk %d failed and scrubbed; array now serves degraded\n", *disk)
	return nil
}

func cmdRebuild(args []string) error {
	fs := flag.NewFlagSet("rebuild", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	failed := arr.Store().Failed()
	// Sample how wide the rebuild runs (it fans out while nothing else
	// reads or writes the array, which here nothing does).
	widest, done := 0, make(chan struct{})
	go func() {
		defer close(done)
		for tick := time.NewTicker(time.Millisecond); arr.Store().Failed() == failed; <-tick.C {
			widest = max(widest, arr.Store().Stats().RebuildWorkers)
		}
	}()
	elapsed, err := arr.Rebuild()
	if err != nil {
		return err
	}
	<-done
	m := arr.Manifest()
	diskBytes := int64(m.DiskUnits) * int64(m.UnitSize)
	fmt.Printf("rebuilt disk %d: %d bytes in %v (%s, up to %d workers)\n",
		failed, diskBytes, elapsed.Round(time.Millisecond), units.FormatMBPerSec(diskBytes, elapsed), widest)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	if err := arr.Store().VerifyParity(); err != nil {
		return err
	}
	if f := arr.Store().Failed(); f >= 0 {
		fmt.Printf("parity OK on all stripes not crossing failed disk %d\n", f)
	} else {
		fmt.Println("parity OK on all stripes")
	}
	return nil
}

// cmdLoadgen drives one seeded workload straight at the opened array
// on the scenario engine; flags and output are those of
// cmd/internal/loadgen, shared with pdlserve and pdlcluster.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	backend := addBackendFlag(fs)
	lf := loadgen.AddFlags(fs)
	fs.Parse(args)
	sc, err := lf.Scenario()
	if err != nil {
		return err
	}
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	s := arr.Store()
	// The writes scribble over the array; snapshot the logical contents
	// first and restore them after, so loadgen is non-destructive.
	saved := make([]byte, s.Size())
	if _, err := s.ReadAt(saved, 0); err != nil {
		return err
	}
	defer func() {
		if _, err := s.WriteAt(saved, 0); err != nil {
			fmt.Fprintln(os.Stderr, "pdlstore: loadgen: restoring contents:", err)
		}
	}()
	fmt.Printf("codec %s/%d, kernel %s, %d B units\n", s.Code().Name(), s.Code().ParityShards(), code.Kernel(), s.UnitSize())
	return loadgen.Run(sc, &scenario.StoreTarget{S: s})
}
