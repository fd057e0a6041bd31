package main

// Example pins the walkthrough's printed output: create, crash-reopen,
// scrub-fail, degraded reopen, online rebuild — all asserted by `go test`.
func Example() {
	main()
	// Output:
	// created: method ring, v=9 k=3, 24 units of 64 B per disk
	// after unclean reopen: "bytes that outlive the process"
	// after failure + reopen: failed disks [2], state "failed"
	// degraded read via survivor XOR: "bytes that outlive the process" (intact: true)
	// rebuilt: failed disks [], state "rebuilt", parity verified
}
