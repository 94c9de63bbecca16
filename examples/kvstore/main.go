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
	"prepuc/internal/history"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

const workers = 6

func config() core.Config {
	return core.Config{
		Mode:      core.Durable, // acknowledged writes must survive crashes
		Topology:  numa.Topology{Nodes: 2, ThreadsPerNode: 4},
		Workers:   workers,
		LogSize:   1 << 10,
		Epsilon:   128,
		Factory:   seq.HashMapType(512).New,
		Attacher:  seq.HashMapType(512).Attach,
		HeapWords: 1 << 21,
	}
}

func main() {
	cfg := config()
	bootSch := sim.New(0)
	// Background flushes on: the adversarial cache behaviour real NVM has.
	sys := nvm.NewSystem(bootSch, nvm.Config{
		Costs: sim.DefaultCosts(), BGFlushOneIn: 256, Seed: 42,
	})
	var store *core.PREP
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) {
		store, err = core.New(t, sys, cfg)
	})
	bootSch.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: serve writes until the power fails. Each worker records,
	// host-side, how many of its PUTs were acknowledged.
	runSch := sim.New(0)
	runSch.CrashAtEvent(400_000) // pull the plug mid-run
	sys.SetScheduler(runSch)
	store.SpawnPersistence(0)
	acked := make([]uint64, workers)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		runSch.Spawn("client", cfg.Topology.NodeOf(tid), 0, func(t *sim.Thread) {
			for i := uint64(0); ; i++ {
				store.Execute(t, tid, uc.Insert(history.Key(tid, i), i))
				acked[tid] = i + 1 // PUT acknowledged to the client
			}
		})
	}
	runSch.Run()
	var total uint64
	for _, n := range acked {
		total += n
	}
	fmt.Printf("power failure after %d acknowledged PUTs\n", total)

	// Phase 2: recover from NVM.
	recSch := sim.New(0)
	recSys := sys.Recover(recSch)
	var recovered *core.PREP
	var report *core.RecoveryReport
	recSch.Spawn("recovery", 0, 0, func(t *sim.Thread) {
		recovered, report, err = core.Recover(t, recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from stable replica %d (checkpointed at log index %d); replayed %d durable log entries up to completedTail %d\n",
		report.StableReplica, report.StableLocalTail, report.Replayed, report.CompletedTail)

	// Phase 3: verify durable linearizability — every acknowledged PUT is
	// present — then keep serving.
	verifySch := sim.New(0)
	recSys.SetScheduler(verifySch)
	lost := 0
	verifySch.Spawn("verify", 0, 0, func(t *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < acked[tid]; i++ {
				if recovered.Execute(t, 0, uc.Get(history.Key(tid, i))) == uc.NotFound {
					lost++
				}
			}
		}
	})
	verifySch.Run()
	if lost != 0 {
		log.Fatalf("DURABILITY VIOLATION: %d acknowledged PUTs lost", lost)
	}
	fmt.Printf("all %d acknowledged PUTs survived the crash\n", total)

	// Phase 4: the recovered store serves new traffic.
	serveSch := sim.New(0)
	recSys.SetScheduler(serveSch)
	recovered.SpawnPersistence(0)
	remaining := workers
	for tid := 0; tid < workers; tid++ {
		tid := tid
		serveSch.Spawn("client", cfg.Topology.NodeOf(tid), 0, func(t *sim.Thread) {
			defer func() {
				remaining--
				if remaining == 0 {
					recovered.StopPersistence(t)
				}
			}()
			for i := uint64(0); i < 200; i++ {
				k := uint64(1)<<62 | history.Key(tid, i)
				recovered.Execute(t, tid, uc.Insert(k, i))
			}
		})
	}
	serveSch.Run()
	fmt.Println("post-recovery traffic served; store is live")
}
