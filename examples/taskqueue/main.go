// taskqueue: a persistent priority work queue built on PREP-Buffered.
//
// A scheduler accepts prioritized tasks and hands the most urgent one to the
// next free worker. Losing a handful of very recent submissions at a power
// failure is acceptable for this application — what is not acceptable is an
// inconsistent queue. PREP-Buffered fits exactly: it bounds the loss at
// ε+β−1 submissions per crash while running far faster than a fully durable
// construction, and recovery always yields a consistent prefix.
//
//	go run ./examples/taskqueue
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

const (
	producers = 4
	consumers = 3
	workers   = producers + consumers
)

// A task is encoded as priority<<20 | id, so DeleteMin pops the most urgent
// task and the id stays recoverable.
func task(priority, id uint64) uint64 { return priority<<20 | id }

func main() {
	topo := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	cfg := core.Config{
		Mode:      core.Buffered,
		Topology:  topo,
		Workers:   workers,
		LogSize:   1 << 10,
		Epsilon:   64, // lose at most 64+4−1 submissions per crash
		Factory:   seq.PQueueType().New,
		Attacher:  seq.PQueueType().Attach,
		HeapWords: 1 << 20,
	}
	bootSch := sim.New(0)
	sys := nvm.NewSystem(bootSch, nvm.Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 256, Seed: 9})
	var q *core.PREP
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) { q, err = core.New(t, sys, cfg) })
	bootSch.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Producers submit prioritized tasks; consumers pop the most urgent.
	runSch := sim.New(0)
	runSch.CrashAtEvent(300_000)
	sys.SetScheduler(runSch)
	q.SpawnPersistence(0)
	submitted := make([]uint64, producers)
	processed := make([]uint64, consumers)
	for pid := 0; pid < producers; pid++ {
		pid := pid
		runSch.Spawn("producer", topo.NodeOf(pid), 0, func(t *sim.Thread) {
			for i := uint64(0); ; i++ {
				prio := (i*7 + uint64(pid)) % 100
				q.Execute(t, pid, uc.Enqueue(task(prio, uint64(pid)<<12|i)))
				submitted[pid] = i + 1
			}
		})
	}
	for c := 0; c < consumers; c++ {
		c := c
		tid := producers + c
		runSch.Spawn("consumer", topo.NodeOf(tid), 0, func(t *sim.Thread) {
			for {
				if q.Execute(t, tid, uc.DeleteMin()) != uc.NotFound {
					processed[c]++
				}
			}
		})
	}
	runSch.Run()
	var subTotal, procTotal uint64
	for _, n := range submitted {
		subTotal += n
	}
	for _, n := range processed {
		procTotal += n
	}
	fmt.Printf("crash after %d submissions, %d completions\n", subTotal, procTotal)

	// Recover and inspect the queue: it must be consistent (a prefix of the
	// pre-crash history), and the loss window bounded.
	recSch := sim.New(0)
	recSys := sys.Recover(recSch)
	var rq *core.PREP
	var report *core.RecoveryReport
	recSch.Spawn("recovery", 0, 0, func(t *sim.Thread) {
		rq, report, err = core.Recover(t, recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from stable replica %d (checkpoint at log index %d)\n",
		report.StableReplica, report.StableLocalTail)

	checkSch := sim.New(0)
	recSys.SetScheduler(checkSch)
	// Draining performs updates, so the recovered engine needs its
	// persistence thread back.
	rq.SpawnPersistence(0)
	checkSch.Spawn("check", 0, 0, func(t *sim.Thread) {
		defer rq.StopPersistence(t)
		size := rq.Execute(t, 0, uc.Size())
		fmt.Printf("recovered queue holds %d pending tasks\n", size)
		// Drain in priority order to show the heap is intact.
		prev := uint64(0)
		popped := 0
		for {
			v := rq.Execute(t, 0, uc.DeleteMin())
			if v == uc.NotFound {
				break
			}
			if prio := v >> 20; prio < prev {
				log.Fatalf("heap order violated after recovery: %d after %d", prio, prev)
			} else {
				prev = prio
			}
			popped++
		}
		fmt.Printf("drained %d tasks in priority order — recovered state is consistent\n", popped)
	})
	checkSch.Run()
	beta := uint64(topo.ThreadsPerNode)
	fmt.Printf("loss bound honoured: at most ε+β−1 = %d submissions may be missing\n",
		cfg.Epsilon+beta-1)
}
