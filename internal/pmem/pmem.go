// Package pmem implements a simple size-segregated free-list allocator over
// a simulated memory region, standing in for the persistent memory
// allocators used by the paper (the free-list allocator of Correia et al.
// and PMDK's libvmmalloc).
//
// A PUC needs two guarantees from its allocator (§5.1 of the paper):
//
//  1. allocator operations never corrupt allocated objects if a crash hits
//     mid-allocation — satisfied here because blocks are carved by a bump
//     pointer and recycled through free lists that never overlap live data;
//  2. allocated objects keep their addresses across a crash — satisfied
//     because offsets within an nvm.Memory are stable by construction (the
//     simulated analogue of mapping the persistent memory file at a fixed
//     virtual address).
//
// The same allocator also serves volatile replicas (over a Volatile-kind
// memory); this mirrors PREP-UC's allocator-swapping wrapper, which routes a
// thread's allocations to either the system allocator or the persistent
// allocator without modifying the sequential data structure: here, the data
// structure receives an *Allocator and is oblivious to the kind of memory
// behind it.
//
// An Allocator is single-writer: callers must serialize Alloc/Free (the
// universal constructions do so under their combiner or writer locks; SOFT
// does so under a dedicated allocation lock). Concurrent mutation corrupts
// the free lists.
package pmem

import (
	"fmt"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// Layout of the heap header (word offsets).
const (
	offMagic   = 0
	offHeapTop = 1
	offRoot0   = 2  // 8 root slots: words 2..9
	offBin0    = 10 // numClasses bin heads: words 10..10+numClasses-1
	headerEnd  = 10 + numClasses
	// dataStart is where blocks begin, line-aligned past the header.
	dataStart = (headerEnd + nvm.WordsPerLine - 1) / nvm.WordsPerLine * nvm.WordsPerLine
)

// NumRoots is the number of persistent root slots.
const NumRoots = 8

const magic = 0x9E12_EC0B_5EED_0001

// numClasses size classes: payload capacity 2^c words for c in [0,numClasses).
const numClasses = 22

// Allocator carves blocks out of one memory region. Every block has a
// one-word header holding its size class, so Free needs only the offset.
type Allocator struct {
	m *nvm.Memory
}

// New formats a fresh heap in m and returns its allocator.
func New(t *sim.Thread, m *nvm.Memory) *Allocator {
	a := &Allocator{m: m}
	a.m.Store(t, offMagic, magic)
	a.m.Store(t, offHeapTop, dataStart)
	for i := 0; i < NumRoots; i++ {
		a.m.Store(t, offRoot0+uint64(i), 0)
	}
	for c := 0; c < numClasses; c++ {
		a.m.Store(t, offBin0+uint64(c), 0)
	}
	return a
}

// Attach opens an already-formatted heap (for example after a crash).
func Attach(t *sim.Thread, m *nvm.Memory) *Allocator {
	a := &Allocator{m: m}
	if got := a.m.Load(t, offMagic); got != magic {
		panic(fmt.Sprintf("pmem: memory %q holds no heap (magic %#x)", m.Name(), got))
	}
	return a
}

// Memory returns the region the heap lives in.
func (a *Allocator) Memory() *nvm.Memory { return a.m }

// classFor returns the smallest class whose payload fits words.
func classFor(words uint64) int {
	if words == 0 {
		words = 1
	}
	c := 0
	cap := uint64(1)
	for cap < words {
		cap <<= 1
		c++
	}
	if c >= numClasses {
		panic(fmt.Sprintf("pmem: allocation of %d words exceeds largest class", words))
	}
	return c
}

// Alloc returns the offset of a zeroed block with capacity for the requested
// number of words. It panics if the heap is exhausted (the harness sizes
// heaps generously, mirroring the paper's 64 GB persistent memory file).
func (a *Allocator) Alloc(t *sim.Thread, words uint64) uint64 {
	c := classFor(words)
	binOff := offBin0 + uint64(c)
	head := a.m.Load(t, binOff)
	if head != 0 {
		next := a.m.Load(t, head) // freed block's payload word 0 links the list
		a.m.Store(t, binOff, next)
		a.zero(t, head, uint64(1)<<uint(c))
		return head
	}
	blockWords := (uint64(1) << uint(c)) + 1 // +1 header word
	top := a.m.Load(t, offHeapTop)
	if top+blockWords > a.m.Words() {
		panic(fmt.Sprintf("pmem: out of memory in %q (top=%d, need=%d, size=%d)",
			a.m.Name(), top, blockWords, a.m.Words()))
	}
	a.m.Store(t, offHeapTop, top+blockWords)
	a.m.Store(t, top, uint64(c)) // block header: size class
	return top + 1
}

// zero clears a recycled block's payload. Fresh bump-allocated blocks are
// already zero.
func (a *Allocator) zero(t *sim.Thread, off, words uint64) {
	for i := uint64(0); i < words; i++ {
		a.m.Store(t, off+i, 0)
	}
}

// Free returns the block at off (as returned by Alloc) to its bin.
func (a *Allocator) Free(t *sim.Thread, off uint64) {
	if off == 0 {
		return
	}
	c := a.m.Load(t, off-1)
	if c >= numClasses {
		panic(fmt.Sprintf("pmem: Free(%d): corrupt block header %d", off, c))
	}
	binOff := offBin0 + c
	head := a.m.Load(t, binOff)
	a.m.Store(t, off, head)
	a.m.Store(t, binOff, off)
}

// SetRoot stores a value into a persistent root slot.
func (a *Allocator) SetRoot(t *sim.Thread, slot int, v uint64) {
	if slot < 0 || slot >= NumRoots {
		panic("pmem: root slot out of range")
	}
	a.m.Store(t, offRoot0+uint64(slot), v)
}

// Root loads a persistent root slot.
func (a *Allocator) Root(t *sim.Thread, slot int) uint64 {
	if slot < 0 || slot >= NumRoots {
		panic("pmem: root slot out of range")
	}
	return a.m.Load(t, offRoot0+uint64(slot))
}

// HeapTop returns the bump pointer (for tests and capacity accounting).
func (a *Allocator) HeapTop(t *sim.Thread) uint64 { return a.m.Load(t, offHeapTop) }
