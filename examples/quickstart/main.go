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
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func main() {
	// A simulated machine: 2 NUMA nodes × 4 hardware threads, calibrated
	// Optane-like latencies, deterministic from the seed.
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	bootSch := sim.New(0)
	sys := nvm.NewSystem(bootSch, nvm.Config{Costs: sim.DefaultCosts()})

	// Build PREP-Buffered around the sequential hashmap. The sequential
	// implementation is a black box: PREP-UC never interposes its loads and
	// stores, which is the whole point of a persistent universal
	// construction.
	cfg := core.Config{
		Mode:      core.Buffered,
		Topology:  topo,
		Workers:   7, // leave one hardware thread for the persistence thread
		LogSize:   1 << 12,
		Epsilon:   256,                       // at most ε+β−1 completed ops lost per crash
		Factory:   seq.HashMapType(1024).New, // any sequential black box
		Attacher:  seq.HashMapType(1024).Attach,
		HeapWords: 1 << 20,
	}
	var p *core.PREP
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) {
		p, err = core.New(t, sys, cfg)
	})
	bootSch.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Run 7 workers concurrently (in deterministic virtual time); the
	// dedicated persistence thread checkpoints the object as they go.
	runSch := sim.New(0)
	sys.SetScheduler(runSch)
	p.SpawnPersistence(0)
	const perWorker = 500
	remaining := cfg.Workers
	for tid := 0; tid < cfg.Workers; tid++ {
		tid := tid
		runSch.Spawn("worker", topo.NodeOf(tid), 0, func(t *sim.Thread) {
			defer func() {
				remaining--
				if remaining == 0 {
					p.StopPersistence(t)
				}
			}()
			for i := uint64(0); i < perWorker; i++ {
				key := uint64(tid)*1_000_000 + i
				p.Execute(t, tid, uc.Insert(key, key*2))
				// Read-only operations take the local replica's reader lock
				// and never touch the log.
				if got := p.Execute(t, tid, uc.Get(key)); got != key*2 {
					log.Fatalf("read own write: got %d", got)
				}
			}
		})
	}
	runSch.Run()

	// Inspect the final state.
	checkSch := sim.New(0)
	sys.SetScheduler(checkSch)
	checkSch.Spawn("check", 0, 0, func(t *sim.Thread) {
		size := p.Execute(t, 0, uc.Size())
		fmt.Printf("final size: %d (expected %d)\n", size, cfg.Workers*perWorker)
		st := p.Stats()
		fmt.Printf("updates: %d  reads: %d  combines: %d (avg batch %.1f)  persistence cycles: %d\n",
			st.Updates, st.Reads, st.CombinerAcquisitions,
			st.MeanBatchSize, st.PersistCycles)
	})
	checkSch.Run()
}
