package main

// Example pins the program's output: the simulated machine is deterministic,
// so every line, counts included, reproduces exactly.
func Example() {
	main()
	// Output:
	// final size: 3500 (expected 3500)
	// updates: 3500  reads: 3501  combines: 1609 (avg batch 2.2)  persistence cycles: 13
}
