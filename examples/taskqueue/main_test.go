package main

// Example pins the program's output: the simulated machine is deterministic,
// so every line, counts included, reproduces exactly.
func Example() {
	main()
	// Output:
	// crash after 705 submissions, 638 completions
	// recovered the last checkpoint in 395545 virtual ns; replayed 0 log entries
	// recovered queue holds 62 pending tasks
	// drained 62 tasks in priority order — recovered state is consistent
	// loss bound honoured: at most ε+β−1 = 67 submissions may be missing
}
