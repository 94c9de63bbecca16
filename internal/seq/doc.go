// Package seq implements the sequential data structures used as black-box
// inputs to the universal constructions: a resizable chained hashmap, a
// red-black tree, a binary-heap priority queue, a stack, and a FIFO queue —
// the five objects of the paper's evaluation (§6).
//
// Every structure stores its state exclusively inside a pmem.Allocator heap
// and refers to its own nodes by word offsets, never Go pointers. One
// implementation therefore serves both volatile replicas (heap over a
// Volatile memory) and persistent replicas (heap over an NVM memory), which
// is the simulated counterpart of PREP-UC's allocator-swapping wrapper: the
// sequential code is identical in both roles and performs no flushes or
// fences of its own.
//
// Each structure registers its header block in the allocator's root slot 0,
// so an instance can be re-attached to a heap that survived a crash. Each
// exports NewX, AttachX and XType, the uc.ObjectType that hands both to a
// construction.
package seq

import "prepuc/internal/sim"

// rootSlot is the allocator root slot every structure keeps its header in.
const rootSlot = 0

// splitmix64 is the hash function for hashmap bucket selection.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unknownOp panics uniformly for unsupported operation codes.
func unknownOp(ds string, code uint64) uint64 {
	panic("seq: " + ds + ": unsupported operation code")
}

var _ = sim.Crash{} // keep the sim import pinned for doc reference
