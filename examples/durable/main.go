// Durable: the on-disk array lifecycle — create an array directory with
// pdl/store/array, write through the store, then prove durability the
// hard way: reopen after an unclean stop, scrub-fail a disk, reopen
// again (the manifest remembers the failure), serve degraded from
// survivor XOR, rebuild the disk online in place, and verify parity on
// the healthy result. The same directory works with the FileDisk and
// MmapDisk backends and with `pdlstore` / `pdlserve serve -dir`.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"repro/pdl/store/array"
)

func main() {
	dir, err := os.MkdirTemp("", "pdl-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Create: layout.json + array.json + one zeroed file per disk.
	arr, err := array.Create(dir, array.CreateOptions{V: 9, K: 3, UnitSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	m := arr.Manifest()
	fmt.Printf("created: method %s, v=%d k=%d, %d units of %d B per disk\n",
		m.Method, m.V, m.K, m.DiskUnits, m.UnitSize)

	msg := []byte("bytes that outlive the process")
	if _, err := arr.Store().WriteAt(msg, 128); err != nil {
		log.Fatal(err)
	}

	// "Crash": drop the array without Close and reopen the directory.
	arr, err = array.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := arr.Store().ReadAt(got, 128); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after unclean reopen: %q\n", got)

	// Fail disk 2: the file is scrubbed and the manifest records it.
	if err := arr.Fail(2); err != nil {
		log.Fatal(err)
	}

	// Reopen once more (mmap-backed this time): still degraded — a
	// restart must never serve a scrubbed disk as healthy.
	arr, err = array.Open(dir, array.WithBackend(array.Mmap))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after failure + reopen: failed disk %d, state %q\n",
		arr.Store().Failed(), arr.Manifest().Disks[2].State)
	if _, err := arr.Store().ReadAt(got, 128); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded read via survivor XOR: %q (intact: %v)\n", got, bytes.Equal(got, msg))

	// Rebuild online: reconstruction streams into the scrubbed
	// disk02.dat itself, which is synced before the manifest records it.
	if _, err := arr.Rebuild(); err != nil {
		log.Fatal(err)
	}
	if err := arr.Store().VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt: failed disk %d, state %q, parity verified\n",
		arr.Store().Failed(), arr.Manifest().Disks[2].State)

	if err := arr.Close(); err != nil {
		log.Fatal(err)
	}
}
