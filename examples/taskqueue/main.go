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
	"prepuc/internal/drivers"
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
	d := core.NewDriver(core.ConfigFor(core.Buffered, uc.Sizing{
		Topology:  topo,
		Workers:   workers,
		LogSize:   1 << 10,
		Epsilon:   64, // lose at most 64+4−1 submissions per crash
		Object:    seq.PQueueType(),
		HeapWords: 1 << 20,
	}))
	ds := []*uc.Driver{d}
	sys, q, err := drivers.Boot(d, nvm.Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 256, Seed: 9}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Producers (workers 0–3) submit prioritized tasks; consumers (4–6) pop
	// the most urgent, until the crash armed at event 300 000.
	submitted := make([]uint64, producers)
	processed := make([]uint64, consumers)
	if _, err := drivers.Run(sys, 300_000, ds, topo, workers, func(t *sim.Thread, tid int) {
		if tid < producers {
			for i := uint64(0); ; i++ {
				prio := (i*7 + uint64(tid)) % 100
				q.Execute(t, tid, uc.Enqueue(task(prio, uint64(tid)<<12|i)))
				submitted[tid] = i + 1
			}
		}
		c := tid - producers
		for {
			if q.Execute(t, tid, uc.DeleteMin()) != uc.NotFound {
				processed[c]++
			}
		}
	}); err != nil {
		log.Fatal(err)
	}
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
	rec, err := drivers.Recover(d, sys, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered the last checkpoint in %d virtual ns; replayed %d log entries\n",
		rec.VirtualNS, rec.Info.Replayed)

	// Draining performs updates, so it is a workload phase of one worker:
	// the recovered engine gets its persistence thread back.
	rq := rec.Eng
	if _, err := drivers.Run(rec.Sys, 0, ds, topo, 1, func(t *sim.Thread, _ int) {
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
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loss bound honoured: at most ε+β−1 = %d submissions may be missing\n",
		d.LossBound(topo.ThreadsPerNode))
}
