// Quickstart: build a persistent concurrent hashmap from a *sequential*
// hashmap using PREP-Buffered, run a few concurrent workers, and read the
// results back — the minimal end-to-end use of the library.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

const workers = 7 // leave one hardware thread for the persistence thread

func main() {
	// A simulated machine: 2 NUMA nodes × 4 hardware threads, calibrated
	// Optane-like latencies, deterministic from the seed.
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}

	// Build PREP-Buffered around the sequential hashmap. The sequential
	// implementation is a black box: PREP-UC never interposes its loads and
	// stores, which is the whole point of a persistent universal
	// construction.
	d := core.NewDriver(core.ConfigFor(core.Buffered, uc.Sizing{
		Topology:  topo,
		Workers:   workers,
		LogSize:   1 << 12,
		Epsilon:   256,                   // at most ε+β−1 completed ops lost per crash
		Object:    seq.HashMapType(1024), // any sequential black box
		HeapWords: 1 << 20,
	}))
	sys, p, err := drivers.Boot(d, nvm.Config{Costs: sim.DefaultCosts()}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Run 7 workers concurrently (in deterministic virtual time); the
	// dedicated persistence thread checkpoints the object as they go, and
	// the last worker out stops it.
	const perWorker = 500
	if _, err := drivers.Run(sys, 0, []*uc.Driver{d}, topo, workers, func(t *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			key := uint64(tid)*1_000_000 + i
			p.Execute(t, tid, uc.Insert(key, key*2))
			// Read-only operations take the local replica's reader lock
			// and never touch the log.
			if got := p.Execute(t, tid, uc.Get(key)); got != key*2 {
				log.Fatalf("read own write: got %d", got)
			}
		}
	}); err != nil {
		log.Fatal(err)
	}

	// Inspect the final state.
	if err := drivers.Probe(sys, func(t *sim.Thread) {
		size := p.Execute(t, 0, uc.Size())
		fmt.Printf("final size: %d (expected %d)\n", size, workers*perWorker)
		st := p.(*core.PREP).Stats()
		fmt.Printf("updates: %d  reads: %d  combines: %d (avg batch %.1f)  persistence cycles: %d\n",
			st.Updates, st.Reads, st.CombinerAcquisitions,
			st.MeanBatchSize, st.PersistCycles)
	}); err != nil {
		log.Fatal(err)
	}
}
