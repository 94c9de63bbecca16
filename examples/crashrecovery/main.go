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
// checks each recovery against the recorded history: the recovered state
// must be one consistent cut of it, losing at most ε+β−1 completed inserts
// (buffered durable linearizability, internal/linearize).
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"

	"prepuc/internal/core"
	"prepuc/internal/harness"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

const workers = 8

// run crashes and recovers one machine and returns the verdict on it; a
// recovery or read-back that walked torn state answers with an error, which
// is the verdict too.
func run(single bool, seed int64) (string, bool) {
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	cfg := core.ConfigFor(core.Buffered, uc.Sizing{
		Topology:  topo,
		Workers:   workers,
		LogSize:   128,
		Epsilon:   32,
		Object:    seq.HashMapType(64),
		HeapWords: 1 << 20,
	})
	cfg.SinglePReplica = single
	// The crash cycle of cmd/crashtest (harness.Machine), one instance.
	// Aggressive background flushing makes the hazard likely.
	m, err := harness.BootMachine(topo, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 8, Seed: uint64(seed) + 5,
	}, core.NewDriver(cfg))
	if err != nil {
		panic(err)
	}
	recs, _ := m.InsertUntilCrash(90_000+uint64(seed%13)*21_001, workers, harness.FlatKey)
	ops := recs[0].Ops()
	if _, err := m.Recover(nil, nil); err != nil {
		return err.Error(), true
	}
	// Read back every inserted key and 32 past each worker's last.
	invoked := make([]uint64, workers)
	for _, op := range ops {
		invoked[op.Client]++
	}
	var keys []uint64
	for tid, n := range invoked {
		for i := uint64(0); i < n+32; i++ {
			keys = append(keys, harness.Key(tid, i))
		}
	}
	state, foreign, err := m.ProbeState([][]uint64{keys})
	if err != nil {
		return err.Error(), true
	}
	res := m.CheckEpoch(0, nil, ops, state[0])
	return fmt.Sprintf("%s, %d keys beyond them", res, foreign[0]), !res.OK || foreign[0] != 0
}

func main() {
	const trials = 6
	fmt.Println("two persistent replicas (the paper's design):")
	anomalies := 0
	for s := int64(0); s < trials; s++ {
		rep, bad := run(false, s*1000+1)
		status := "consistent cut"
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
		status := "consistent cut"
		if bad {
			status = "ANOMALY (torn or inconsistent state recovered)"
			anomalies++
		}
		fmt.Printf("  crash %d: %s — %s\n", s, rep, status)
	}
	fmt.Printf("  anomalies: %d/%d\n", anomalies, trials)
	fmt.Println("\nthe background-flush hazard is real: one replica is not enough.")
}
