package main

// Example pins the walkthrough's printed output: build, serve, fail,
// degraded reads, online rebuild, verify — all asserted by `go test`.
func Example() {
	main()
	// Output:
	// construction: ring
	// store: 13 disks, 936 logical units of 64 B (59904 B capacity)
	// dataset written, parity verified on every stripe
	// ReadAt(100): "parity declustering serves bytes"
	// ReadAt(100) with disk 5 down: "parity declustering serves bytes"
	// degraded full sweep matches the mirror: true
	// served via survivor XOR: true
	// rebuilt disk 5 online; failed disks now: []
	// healthy full sweep matches the mirror: true
}
