// Command pdlstore drives the pdl/store byte-serving engine end-to-end
// over a durable file-backed disk array (see pdl/store/array): create an
// array, write and read bytes, fail a disk (really scrubbing its file,
// with the failure persisted in the array manifest), serve degraded,
// rebuild the lost disk from survivor XOR, verify parity, and
// micro-benchmark throughput.
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
//	pdlstore bench -dir a17 -backend mmap
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

	"repro/cmd/internal/units"
	"repro/pdl/code"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

func main() {
	if len(os.Args) < 2 {
		die(fmt.Errorf("usage: pdlstore <init|write|read|fail|rebuild|verify|bench> [flags]"))
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
	case "bench":
		err = cmdBench(args)
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

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	dir := fs.String("dir", "", "array directory")
	secs := fs.Float64("seconds", 1, "seconds per measurement")
	backend := addBackendFlag(fs)
	fs.Parse(args)
	arr, err := openArray(*dir, *backend)
	if err != nil {
		return err
	}
	defer arr.Close()
	s := arr.Store()
	unit := s.UnitSize()
	buf := make([]byte, unit)
	// The write phase scribbles over the array; snapshot the logical
	// contents first and restore them after, so bench is non-destructive.
	saved := make([]byte, s.Size())
	if _, err := s.ReadAt(saved, 0); err != nil {
		return err
	}
	defer func() {
		if _, err := s.WriteAt(saved, 0); err != nil {
			fmt.Fprintln(os.Stderr, "pdlstore: bench: restoring contents:", err)
		}
	}()
	fmt.Printf("codec %s/%d, kernel %s, %d B units\n", s.Code().Name(), s.Code().ParityShards(), code.Kernel(), unit)
	// Rates are decimal MB/s (1 MB = 1e6 B), matching `go test -bench`
	// and the repository benchmark (go run ./bench); see
	// repro/cmd/internal/units.
	run := func(name string, op func(i int) error) error {
		deadline := time.Now().Add(time.Duration(*secs * float64(time.Second)))
		var ops int64
		start := time.Now()
		for i := 0; time.Now().Before(deadline); i++ {
			if err := op(i % s.Capacity()); err != nil {
				return err
			}
			ops++
		}
		el := time.Since(start)
		fmt.Printf("%-16s %10.0f ops/s  %12s\n", name, float64(ops)/el.Seconds(), units.FormatMBPerSec(ops*int64(unit), el))
		return nil
	}
	if err := run("read", func(i int) error { return s.Read(i, buf) }); err != nil {
		return err
	}
	return run("write", func(i int) error { return s.Write(i, buf) })
}
