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
	Object    uc.ObjectType
	HeapWords uint64
}

// GL is the global-lock universal construction. The single copy lives on
// node 0, as in the paper's setup, so threads on other sockets pay
// cross-socket latency.
type GL struct {
	ds   uc.DataStructure
	lock locks.RWLock
}

var _ uc.UC = (*GL)(nil)

// New builds the construction inside sys.
func New(t *sim.Thread, sys *nvm.System, cfg Config) *GL {
	heap := sys.NewMemory("gl.heap", nvm.Volatile, 0, cfg.HeapWords)
	ctrl := sys.NewMemory("gl.ctrl", nvm.Volatile, 0, nvm.WordsPerLine)
	return &GL{
		ds:   cfg.Object.New(t, pmem.New(t, heap)),
		lock: locks.NewRWLock(ctrl, 0),
	}
}

// Execute runs one operation, read-only or update, under the global lock: the
// paper's "Global Lock (GL)" baseline is a plain mutex.
func (g *GL) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
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
