package main

// Example pins the walkthrough's printed output: serve over TCP, fail,
// degraded reads, online rebuild, verify — all asserted by `go test`.
func Example() {
	main()
	// Output:
	// construction: ring
	// connected over TCP: 13 disks, 936 units of 64 B
	// wrote 936 units from 4 concurrent clients
	// read back: "parity declustering over the network"
	// disk 5 failed; degraded read: "parity declustering over the network"
	// degraded sweep over the wire matches: true
	// served via survivor XOR: true
	// rebuilt online; failed disks now: []
	// parity verified; healthy sweep matches: true
}
