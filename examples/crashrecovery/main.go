// crashrecovery: why PREP-UC keeps TWO dedicated persistent replicas.
//
// §4.1 of the paper: during an update a replica passes through inconsistent
// intermediate states, and the cache-coherence protocol may write any dirty
// line back to NVM at any time ("background flush") — so a single persistent
// replica can leak a torn state to the media and a crash then recovers
// garbage. PREP-UC's answer is two dedicated persistent replicas, only one
// of which is ever being written; the other stays quiescent in NVM.
//
// This example runs the same crash schedule twice — once with the sound
// two-replica design and once with the unsound single-replica variant — and
// checks each recovery for per-worker prefix anomalies.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"

	"prepuc/internal/core"
	"prepuc/internal/harness"
	"prepuc/internal/history"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
)

const workers = 8

func run(single bool, seed int64) (history.Report, bool) {
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	cfg := core.Config{
		Mode:      core.Buffered,
		Topology:  topo,
		Workers:   workers,
		LogSize:   128,
		Epsilon:   32,
		Factory:   seq.HashMapType(64).New,
		Attacher:  seq.HashMapType(64).Attach,
		HeapWords: 1 << 20,
		Ablations: core.Ablations{SinglePReplica: single},
	}
	// The crash cycle of cmd/crashtest (harness.Machine), one instance.
	// Aggressive background flushing makes the hazard likely.
	m, err := harness.BootMachine(topo, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 8, Seed: uint64(seed) + 5,
	}, core.NewDriver(cfg))
	if err != nil {
		panic(err)
	}
	completed, _ := m.InsertUntilCrash(90_000+uint64(seed%13)*21_001, workers, harness.FlatKey)

	// A recovery or read-back that walked torn state answers with an error.
	if _, err := m.Recover(nil, nil); err != nil {
		return history.Report{Workers: workers}, true
	}
	keys, _, err := m.ProbePrefix(completed, 32, harness.FlatKey, false)
	if err != nil {
		return history.Report{Workers: workers}, true
	}
	rep := history.Check(keys[0], completed[0])
	return rep, rep.PrefixViolations > 0
}

func main() {
	const trials = 6
	fmt.Println("two persistent replicas (the paper's design):")
	anomalies := 0
	for s := int64(0); s < trials; s++ {
		rep, bad := run(false, s*1000+1)
		status := "consistent prefix"
		if bad {
			status = "ANOMALY"
			anomalies++
		}
		fmt.Printf("  crash %d: %s — %s\n", s, rep, status)
	}
	fmt.Printf("  anomalies: %d/%d\n\n", anomalies, trials)

	fmt.Println("single persistent replica (the unsound variant §4.1 warns about):")
	anomalies = 0
	for s := int64(0); s < trials; s++ {
		rep, bad := run(true, s*1000+1)
		status := "consistent prefix"
		if bad {
			status = "ANOMALY (torn or non-prefix state recovered)"
			anomalies++
		}
		fmt.Printf("  crash %d: %s — %s\n", s, rep, status)
	}
	fmt.Printf("  anomalies: %d/%d\n", anomalies, trials)
	fmt.Println("\nthe background-flush hazard is real: one replica is not enough.")
}
