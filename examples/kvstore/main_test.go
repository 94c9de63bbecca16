package main

// Example pins the program's output: the simulated machine is deterministic,
// so every line, counts included, reproduces exactly.
func Example() {
	main()
	// Output:
	// power failure after 2049 acknowledged PUTs
	// recovered in 9456415 virtual ns; replayed 128 durable log entries
	// all 2049 acknowledged PUTs survived the crash
	// post-recovery traffic served; store is live
}
