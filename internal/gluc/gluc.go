// Package gluc implements the trivial universal construction used as the
// volatile baseline in Figure 1: a single copy of the sequential object
// protected by one global lock. Every operation — read-only or update —
// serializes through the lock, and every thread off the object's home node
// pays remote access costs, which is exactly why NR-UC exists.
package gluc

import (
	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Config parameterizes the construction.
type Config struct {
	Factory   uc.Factory
	HeapWords uint64
	// HomeNode is the NUMA node the single copy lives on (0 in the paper's
	// setup, so threads on other sockets pay cross-socket latency).
	HomeNode int
	// ReadersShare lets read-only operations take the lock in shared mode.
	// The paper's "Global Lock (GL)" baseline is a plain mutex; sharing is
	// off by default and exists for the ablation benchmark.
	ReadersShare bool
}

// GL is the global-lock universal construction.
type GL struct {
	sys          *nvm.System
	heap         *nvm.Memory
	alloc        *pmem.Allocator
	ds           uc.DataStructure
	ctrl         *nvm.Memory
	lock         locks.RWLock
	readersShare bool
}

var _ uc.UC = (*GL)(nil)

// New builds the construction inside sys.
func New(t *sim.Thread, sys *nvm.System, cfg Config) *GL {
	heap := sys.NewMemory("gl.heap", nvm.Volatile, cfg.HomeNode, cfg.HeapWords)
	ctrl := sys.NewMemory("gl.ctrl", nvm.Volatile, cfg.HomeNode, nvm.WordsPerLine)
	alloc := pmem.New(t, heap)
	return &GL{
		sys:          sys,
		heap:         heap,
		alloc:        alloc,
		ds:           cfg.Factory(t, alloc),
		ctrl:         ctrl,
		lock:         locks.NewRWLock(ctrl, 0),
		readersShare: cfg.ReadersShare,
	}
}

// Execute runs one operation under the global lock.
func (g *GL) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	if g.readersShare && g.ds.IsReadOnly(op.Code) {
		g.lock.ReadLock(t)
		res := g.ds.Execute(t, op.Code, op.A0, op.A1)
		g.lock.ReadUnlock(t)
		return res
	}
	g.lock.WriteLock(t)
	res := g.ds.Execute(t, op.Code, op.A0, op.A1)
	g.lock.WriteUnlock(t)
	return res
}

// Prefill applies ops directly to the object before measurement begins.
func (g *GL) Prefill(t *sim.Thread, ops []uc.Op) {
	for _, op := range ops {
		g.ds.Execute(t, op.Code, op.A0, op.A1)
	}
}
