package uc

import (
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// Driver is the one lifecycle descriptor of a construction: how to boot it
// on a fresh machine, how to start and retire its auxiliary threads, how to
// rebuild it on a recovered machine, and what its recovery guarantees. Every
// harness — the serve and recovery experiments, crashtest, the explorer, the
// integration tests — drives constructions through this struct and nothing
// else; each construction package builds its own (core.NewDriver, …) and
// internal/drivers lists them.
//
// Boot and Recover return the engine the caller should drive. One Driver is
// bound to one machine lineage (boot through its recovery chain): the
// constructor keeps the live engine in a closure that Boot and Recover
// rebind, and SpawnAux/StopAux address it through that closure — never
// through the value Boot returned, which a decorator may have wrapped in a
// type that forwards Execute only.
type Driver struct {
	Name string
	Boot func(t *sim.Thread, sys *nvm.System) (UC, error)
	// SpawnAux spawns auxiliary threads (PREP's persistence thread) on the
	// system's current scheduler; StopAux, called by the last worker to
	// finish, retires them. Both are nil when the construction has none.
	SpawnAux func()
	StopAux  func(t *sim.Thread)
	// Recover rebuilds the engine on a recovered system and reports what
	// recovery found. It is re-entrant (a crash inside it is recovered by
	// calling it again on the re-crashed machine) and nil for a construction
	// without a recovery path (PREP-Volatile), which callers must check
	// before arming a crash.
	Recover func(t *sim.Thread, recSys *nvm.System) (UC, RecoverInfo, error)
	// Detect marks a driver whose engine records operation descriptors:
	// callers stamp invocation ids and resolve the crash cut's in-flight
	// operations against RecoverInfo.Resolved.
	Detect bool
	// Buffered marks a driver whose recovered state may lose a completed
	// suffix (PREP-Buffered); Epsilon is its checkpoint interval, from which
	// LossBound derives the loss allowance.
	Buffered bool
	Epsilon  uint64
}

// LossBound is how many completed updates one crash may take from the
// recovered state: 0 for a durably linearizable driver, ε+window−1 for a
// buffered one. window is β under closed-loop workers (the paper's ε+β−1)
// and Shards·MaxBatch under the serve front-end, each of whose consumers can
// hold one combiner session of up to MaxBatch operations.
func (d *Driver) LossBound(window int) int {
	if !d.Buffered {
		return 0
	}
	return int(d.Epsilon) + window - 1
}

// RecoverInfo is what Driver.Recover reports back to the harness.
type RecoverInfo struct {
	// Replayed is the number of log entries recovery re-applied (for SOFT,
	// the keys its slab scan re-inserted).
	Replayed uint64
	// Resolved maps invocation id → result for every in-flight operation
	// recovery proved committed (nil for non-detectable drivers). An id
	// absent from the map definitely never applied.
	Resolved map[uint64]uint64
}

// Sizing is the machine a harness wants a construction built for. It is one
// plain value covering all constructions: each package maps it to its own
// Config (core.ConfigFor, …) and ignores the fields that do not concern it.
type Sizing struct {
	Topology numa.Topology
	Workers  int
	// Object is the sequential object (SOFT is a fixed-function hashtable
	// and ignores it).
	Object ObjectType
	// LogSize, Epsilon, Detect and Instance size PREP-UC: shared-log
	// entries, flush-boundary increment ε, operation descriptors, and the
	// region namespace that lets several engines co-reside on one system.
	LogSize  uint64
	Epsilon  uint64
	Detect   bool
	Instance string
	// HeapWords is the per-replica heap of PREP-UC and ONLL's object heap.
	HeapWords uint64
	// CX-PUC flushes whole replica regions, so its heap is sized on its own.
	CXHeapWords   uint64
	CXQueueCap    uint64
	CXCapReplicas int
	// SoftWords sizes each of SOFT's two regions.
	SoftBuckets uint64
	SoftWords   uint64
	// ONLLLogEntries is each ONLL thread's persistent log capacity.
	ONLLLogEntries uint64
}
