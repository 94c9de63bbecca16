package main

// Example pins the program's output: the simulated machine is deterministic,
// so every line, counts included, reproduces exactly.
func Example() {
	main()
	// Output:
	// two persistent replicas (the paper's design):
	//   crash 0: ok: 755 ops in 755 partitions, lost=8, 0 keys beyond them — consistent cut
	//   crash 1: ok: 580 ops in 580 partitions, lost=26, 0 keys beyond them — consistent cut
	//   crash 2: ok: 2126 ops in 2126 partitions, lost=8, 0 keys beyond them — consistent cut
	//   crash 3: ok: 2056 ops in 2056 partitions, lost=4, 0 keys beyond them — consistent cut
	//   crash 4: ok: 2056 ops in 2056 partitions, lost=16, 0 keys beyond them — consistent cut
	//   crash 5: ok: 1929 ops in 1929 partitions, lost=32, 0 keys beyond them — consistent cut
	//   anomalies: 0/6
	//
	// single persistent replica (the unsound variant §4.1 warns about):
	//   crash 0: FAIL at key=9: no crash cut instant shared by all 962 partitions within loss budget 35 (this one rejected the last) (962 ops in 962 partitions), 0 keys beyond them — ANOMALY (torn or inconsistent state recovered)
	//   crash 1: FAIL at key=0: no linearization of 1 ops within the loss budget 35 leaves it (754 ops in 754 partitions), 0 keys beyond them — ANOMALY (torn or inconsistent state recovered)
	//   crash 2: ok: 2747 ops in 2747 partitions, lost=16, 0 keys beyond them — consistent cut
	//   crash 3: FAIL at key=328: no linearization of 1 ops within the loss budget 30 leaves it (2538 ops in 2538 partitions), 0 keys beyond them — ANOMALY (torn or inconsistent state recovered)
	//   crash 4: FAIL at key=269: no crash cut instant shared by all 2316 partitions within loss budget 35 (this one rejected the last) (2316 ops in 2316 partitions), 0 keys beyond them — ANOMALY (torn or inconsistent state recovered)
	//   crash 5: FAIL at key=309: no linearization of 1 ops within the loss budget 25 leaves it (2177 ops in 2177 partitions), 0 keys beyond them — ANOMALY (torn or inconsistent state recovered)
	//   anomalies: 5/6
	//
	// the background-flush hazard is real: one replica is not enough.
}
