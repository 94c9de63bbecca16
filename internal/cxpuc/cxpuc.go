// Package cxpuc implements CX-PUC (Correia et al., EuroSys '20), the
// persistent universal construction PREP-UC is evaluated against.
//
// Structure (§2.3 of the PREP-UC paper):
//
//   - A shared global queue establishes the linearization order of update
//     operations.
//   - Up to 2n persistent replicas of the sequential object, each guarded by
//     a strong try reader–writer lock. A writer locks some replica (never
//     the currently published one), brings it up to date with the queue
//     through its own operation, flushes the ENTIRE replica to NVM — the
//     design decision that dominates its cost profile — persists the
//     replica's applied index, and publishes the replica with a CAS on a
//     persistent "latest" pointer.
//   - Readers execute on the currently published (persistent!) replica under
//     a shared try-lock, paying NVM read latency.
//
// Simplifications relative to the original, none of which change the cost
// profile the evaluation measures (see DESIGN.md §2): the replica count is
// min(2n, CapReplicas) to bound simulated memory; the queue is a bounded
// buffer sized for the run (CX's queue nodes are volatile: operations are
// durable only through published replicas, so recovery never reads it); and
// the whole-replica write-back is modelled as one bulk flush of the
// replica's used address range, as CX-PUC's allocator-assisted range flush
// does.
package cxpuc

import (
	"fmt"

	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Config parameterizes CX-PUC.
type Config struct {
	Workers int
	// Object is the sequential object each replica holds.
	Object    uc.ObjectType
	HeapWords uint64
	// QueueCapacity bounds the operation queue; the run must not exceed it.
	QueueCapacity uint64
	// CapReplicas bounds the replica count (the original uses 2n).
	CapReplicas int
}

// Queue entry layout: one line per op [state, code, a0, a1].
const (
	qeState = 0
	qeCode  = 1
	qeA0    = 2
	qeA1    = 3
)

// published pointer layout in the meta memory: word 0 holds
// index<<8 | replicaID (index = number of ops applied in that replica).
const metaLatest = 0

// lineage is generation 0 of CX-PUC's lineage. The commit record is what
// keeps a crash inside Recover recoverable here: newEngine publishes an EMPTY
// replica 0 before the recovered state is cloned in, so a recovery that read
// the newest generation instead of the committed one would lose every key.
var lineage = uc.NewLineage("cx", "commit")

const ctrlQTail = 0 // queue tail index, in volatile control memory

type cxReplica struct {
	id      int
	heap    *nvm.Memory
	alloc   *pmem.Allocator
	ds      uc.DataStructure
	lock    locks.RWLock
	applied uint64 // ops applied (mirrors the NVM copy in heap root slot 1)
}

const appliedRootSlot = 1

// CX is one CX-PUC instance.
type CX struct {
	cfg   Config
	sys   *nvm.System
	queue *nvm.Memory // volatile op queue
	ctrl  *nvm.Memory // volatile control (queue tail)
	meta  *nvm.Memory // NVM: published (index, replica) word
	lin   uc.Lineage  // the generation the instance was built at
	reps  []*cxReplica
	flush *nvm.Flusher
	waits locks.Waits
}

var _ uc.UC = (*CX)(nil)

// New builds a CX-PUC instance inside sys and commits its generation, so a
// crash right after boot recovers the empty object.
func New(t *sim.Thread, sys *nvm.System, cfg Config) (*CX, error) {
	cx, err := newEngine(t, sys, cfg, lineage)
	if err != nil {
		return nil, err
	}
	cx.lin.Commit(t)
	return cx, nil
}

// newEngine builds the instance at generation lin without committing it.
// Recover uses it directly: the new generation publishes an empty replica
// here and must not become the recovery source until the recovered state has
// been cloned in and persisted.
func newEngine(t *sim.Thread, sys *nvm.System, cfg Config, lin uc.Lineage) (*CX, error) {
	if cfg.Workers <= 0 || cfg.Object.New == nil || cfg.HeapWords == 0 {
		return nil, fmt.Errorf("cxpuc: incomplete config")
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 1 << 20
	}
	nReps := 2 * cfg.Workers
	if cfg.CapReplicas > 0 && nReps > cfg.CapReplicas {
		nReps = cfg.CapReplicas
	}
	if nReps < 2 {
		nReps = 2
	}
	cx := &CX{cfg: cfg, sys: sys, lin: lin}
	cx.queue = sys.NewMemory(lin.Name("queue"), nvm.Volatile, nvm.Interleaved,
		cfg.QueueCapacity*nvm.WordsPerLine)
	// Control memory: queue tail at word 0, then one lock word per replica
	// (each on its own line). Lock state is volatile in CX-PUC too.
	cx.ctrl = sys.NewMemory(lin.Name("ctrl"), nvm.Volatile, nvm.Interleaved,
		uint64(nReps+1)*nvm.WordsPerLine)
	cx.meta = sys.NewMemory(lin.Name("meta"), nvm.NVM, 0, nvm.WordsPerLine)
	cx.lin.EnsureCommit(sys, 0)
	cx.flush = sys.NewFlusher()
	for i := 0; i < nReps; i++ {
		heap := sys.NewMemory(lin.Name(fmt.Sprintf("rep%d", i)), nvm.NVM, i%2, cfg.HeapWords)
		alloc := pmem.New(t, heap)
		r := &cxReplica{
			id:    i,
			heap:  heap,
			alloc: alloc,
			ds:    cfg.Object.New(t, alloc),
			lock:  locks.NewRWLock(cx.ctrl, uint64(i+1)*nvm.WordsPerLine),
		}
		alloc.SetRoot(t, appliedRootSlot, 0)
		cx.reps = append(cx.reps, r)
	}
	// Publish replica 0 (empty, applied=0) and persist the initial state.
	cx.meta.Store(t, metaLatest, 0)
	cx.reps[0].heap.FlushRegion(t, 0, cx.reps[0].alloc.HeapTop(t))
	cx.flush.FlushLineSync(t, cx.meta, metaLatest)
	return cx, nil
}
