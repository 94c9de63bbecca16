// kvstore: a crash-safe key-value store built on PREP-Durable.
//
// The scenario the paper's introduction motivates: you have a plain
// sequential map and want a persistent, linearizable, NUMA-scalable
// concurrent store without writing a single flush yourself. This example
// runs a mixed workload, pulls the power mid-flight, recovers, verifies
// that every acknowledged write survived (durable linearizability), and
// keeps serving traffic on the recovered store.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/harness"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

const workers = 6

func main() {
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	// Durable: acknowledged writes must survive crashes.
	d := core.NewDriver(core.ConfigFor(core.Durable, uc.Sizing{
		Topology:  topo,
		Workers:   workers,
		LogSize:   1 << 10,
		Epsilon:   128,
		Object:    seq.HashMapType(512),
		HeapWords: 1 << 21,
	}))
	ds := []*uc.Driver{d}
	// Background flushes on: the adversarial cache behaviour real NVM has.
	sys, store, err := drivers.Boot(d, nvm.Config{
		Costs: sim.DefaultCosts(), BGFlushOneIn: 256, Seed: 42,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: serve writes until the power fails (the crash armed at event
	// 400 000 pulls the plug mid-run). Each worker records, host-side, how
	// many of its PUTs were acknowledged.
	acked := make([]uint64, workers)
	if _, err := drivers.Run(sys, 400_000, ds, topo, workers, func(t *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			store.Execute(t, tid, uc.Insert(harness.Key(tid, i), i))
			acked[tid] = i + 1 // PUT acknowledged to the client
		}
	}); err != nil {
		log.Fatal(err)
	}
	var total uint64
	for _, n := range acked {
		total += n
	}
	fmt.Printf("power failure after %d acknowledged PUTs\n", total)

	// Phase 2: recover from NVM.
	rec, err := drivers.Recover(d, sys, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %d virtual ns; replayed %d durable log entries\n",
		rec.VirtualNS, rec.Info.Replayed)

	// Phase 3: verify durable linearizability — every acknowledged PUT is
	// present — then keep serving.
	lost := 0
	if err := drivers.Probe(rec.Sys, func(t *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < acked[tid]; i++ {
				if rec.Eng.Execute(t, 0, uc.Get(harness.Key(tid, i))) == uc.NotFound {
					lost++
				}
			}
		}
	}); err != nil {
		log.Fatal(err)
	}
	if lost != 0 {
		log.Fatalf("DURABILITY VIOLATION: %d acknowledged PUTs lost", lost)
	}
	fmt.Printf("all %d acknowledged PUTs survived the crash\n", total)

	// Phase 4: the recovered store serves new traffic.
	if _, err := drivers.Run(rec.Sys, 0, ds, topo, workers, func(t *sim.Thread, tid int) {
		for i := uint64(0); i < 200; i++ {
			k := uint64(1)<<62 | harness.Key(tid, i)
			rec.Eng.Execute(t, tid, uc.Insert(k, i))
		}
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("post-recovery traffic served; store is live")
}
