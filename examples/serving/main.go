// Serving: the full life of a byte store under parity declustering —
// build a balanced layout, serve writes and reads against real bytes
// (pdl/store over in-memory disks), fail a disk, keep serving degraded
// reads from survivor XOR, rebuild the lost disk online, and verify the
// array is byte-perfect again.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/pdl"
	"repro/pdl/store"
)

func main() {
	// A ring construction on 13 disks, stripe size 4: parity and rebuild
	// workload perfectly balanced.
	res, err := pdl.Build(13, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("construction: %s\n", res.Method)

	// Serve it: two layout copies per disk, 64-byte units, MemDisk
	// backends (pass FileDisks for a persistent array).
	const unitSize = 64
	s, err := store.Open(res, 2*res.Layout.Size, unitSize, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	fmt.Printf("store: %d disks, %d logical units of %d B (%d B capacity)\n",
		res.Layout.V, s.Capacity(), s.UnitSize(), s.Size())

	// Write a dataset (mirrored in a flat buffer so every later read can
	// be checked), then prove parity holds on every stripe.
	mirror := make([]byte, s.Size())
	for i := range mirror {
		mirror[i] = byte(i/unitSize + 7*(i%unitSize))
	}
	if _, err := s.WriteAt(mirror, 0); err != nil {
		log.Fatal(err)
	}
	msg := []byte("parity declustering serves bytes")
	if _, err := s.WriteAt(msg, 100); err != nil {
		log.Fatal(err)
	}
	copy(mirror[100:], msg)
	if err := s.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dataset written, parity verified on every stripe")

	got := make([]byte, len(msg))
	if _, err := s.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReadAt(100): %q\n", got)

	// Disk 5 dies. Reads keep working: lost units are reconstructed on
	// the fly from their stripe's surviving XOR set.
	if err := s.Fail(5); err != nil {
		log.Fatal(err)
	}
	if _, err := s.ReadAt(got, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReadAt(100) with disk 5 down: %q\n", got)

	whole := make([]byte, s.Size())
	if _, err := s.ReadAt(whole, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded full sweep matches the mirror: %v\n", bytes.Equal(whole, mirror))
	var degraded int64
	for _, d := range s.Stats().Disks {
		degraded += d.Degraded
	}
	fmt.Printf("served via survivor XOR: %v\n", degraded > 0)

	// Rebuild online onto a replacement disk; foreground traffic keeps
	// flowing while stripes stream across. Rebuild puts the replacement in
	// disk 5's slot, and the displaced backend is the caller's to close.
	old := s.DiskBackend(5)
	replacement := store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize)
	if err := s.Rebuild(replacement); err != nil {
		log.Fatal(err)
	}
	if err := old.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt disk 5 online; failed disks now: %v\n", s.FailedDisks())
	if err := s.VerifyParity(); err != nil {
		log.Fatal(err)
	}
	if _, err := s.ReadAt(whole, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy full sweep matches the mirror: %v\n", bytes.Equal(whole, mirror))
}
