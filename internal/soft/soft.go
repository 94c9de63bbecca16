// Package soft implements the SOFT hashtable of Zuriel et al. (OOPSLA '19),
// the hand-crafted persistent data structure PREP-UC is framed against in
// Figure 6: "sets with an optimal flushing technique".
//
// What matters for the comparison is SOFT's cost profile:
//
//   - an update persists ONLY the modified words — one persistent node
//     (a single cache line) flushed with one fence;
//   - read-only operations perform no flushes and no fences at all;
//   - data-structure links are never persisted: traversal happens in
//     volatile memory, and recovery reconstructs the table by scanning the
//     persistent nodes.
//
// Each key therefore exists twice, once in a volatile node (with the list
// links) and once in a persistent node (with validity metadata), exactly as
// in the original. One deliberate simplification, documented in DESIGN.md:
// the original's lock-free list operations are replaced by a per-bucket
// spinlock for updates (reads stay lock-free and flush-free), which leaves
// the flush/fence profile — the property under evaluation — unchanged.
package soft

import (
	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Volatile node layout: [key, value, pnode offset, next].
const (
	vnKey   = 0
	vnVal   = 1
	vnPNode = 2
	vnNext  = 3
	vnWords = 4
)

// Persistent node layout (exactly one line, line-aligned so recovery can
// scan the region): [key, value, valid]. valid: 0 = free/deleted,
// 1 = inserted. When a node is on the free list, key holds the next free
// node's offset (the list itself is never persisted; it is rebuilt — in
// fact discarded — at recovery).
const (
	pnKey   = 0
	pnVal   = 1
	pnValid = 2
	pnWords = nvm.WordsPerLine
	// pnBase is where persistent nodes start in their region.
	pnBase = nvm.WordsPerLine
)

// Config parameterizes a SOFT table.
type Config struct {
	// Buckets is the fixed bucket count (the paper compares 1k and 10k).
	Buckets uint64
	// VolatileWords / PersistentWords size the two regions.
	VolatileWords, PersistentWords uint64
}

// lineage is generation 0 of SOFT's lineage. Recovery re-inserts the
// committed generation's surviving persistent nodes into a fresh generation's
// slab, so a nested crash mid-scan leaves the new slab holding only a subset:
// the source slab stays authoritative until the scan completes.
var lineage = uc.NewLineage("soft", "commit")

// Soft is one SOFT hashtable.
type Soft struct {
	cfg    Config
	sys    *nvm.System
	vmem   *nvm.Memory // buckets, locks, volatile nodes
	valloc *pmem.Allocator
	pmem   *nvm.Memory // persistent node slab
	lin    uc.Lineage  // the generation the table was built at
	// Offsets inside vmem.
	bucketsOff uint64
	slabOff    uint64 // [0]=bump index, [1]=free-list head, [2]=slab lock
	// The per-bucket locks and the allocation lock, built once over their
	// words in vmem, so hand-offs count and an acquisition allocates nothing.
	bucketLocks []locks.TryLock
	allocLock   locks.TryLock
	waits       locks.Waits
	flushers    []*nvm.Flusher
}

var _ uc.UC = (*Soft)(nil)

// New builds an empty table inside sys and commits its generation, so a
// crash right after boot recovers the empty table.
func New(t *sim.Thread, sys *nvm.System, cfg Config) *Soft {
	s := newEngine(t, sys, cfg, lineage)
	s.lin.Commit(t)
	return s
}

// newEngine builds the table at generation lin without committing it
// (Recover commits only after its slab scan completes).
func newEngine(t *sim.Thread, sys *nvm.System, cfg Config, lin uc.Lineage) *Soft {
	if cfg.Buckets == 0 {
		cfg.Buckets = 1024
	}
	if cfg.VolatileWords == 0 {
		cfg.VolatileWords = 1 << 22
	}
	if cfg.PersistentWords == 0 {
		cfg.PersistentWords = 1 << 22
	}
	s := &Soft{cfg: cfg, sys: sys, lin: lin}
	s.vmem = sys.NewMemory(lin.Name("volatile"), nvm.Volatile, nvm.Interleaved, cfg.VolatileWords)
	s.valloc = pmem.New(t, s.vmem)
	s.pmem = sys.NewMemory(lin.Name("persistent"), nvm.NVM, nvm.Interleaved, cfg.PersistentWords)
	s.lin.EnsureCommit(sys, nvm.Interleaved)
	s.bucketsOff = s.valloc.Alloc(t, cfg.Buckets)
	locksOff := s.valloc.Alloc(t, cfg.Buckets)
	s.slabOff = s.valloc.Alloc(t, 4)
	s.bucketLocks = make([]locks.TryLock, cfg.Buckets)
	for b := range s.bucketLocks {
		s.bucketLocks[b] = locks.NewTryLock(s.vmem, locksOff+uint64(b))
	}
	s.allocLock = locks.NewTryLock(s.vmem, s.slabOff+2)
	return s
}

// lockAlloc serializes ALL allocator metadata updates — both the persistent
// node slab and the volatile pmem.Allocator, which is single-writer by
// contract (every other system in this repository serializes allocation
// under its combiner/writer lock; SOFT's fine-grained bucket locks do not).
// The original SOFT uses per-thread allocation pools; a spinlock preserves
// the flush/fence profile, which is the property under evaluation.
func (s *Soft) lockAlloc(t *sim.Thread) *locks.TryLock {
	return s.lock(t, &s.allocLock)
}

// lock takes l, waiting in t's Wait.
func (s *Soft) lock(t *sim.Thread, l *locks.TryLock) *locks.TryLock {
	l.Acquire(t, s.waits.Of(t), 1024)
	return l
}

// vnAlloc and vnFree wrap the volatile allocator under the allocation lock.
func (s *Soft) vnAlloc(t *sim.Thread) uint64 {
	l := s.lockAlloc(t)
	defer l.Release(t)
	return s.valloc.Alloc(t, vnWords)
}

func (s *Soft) vnFree(t *sim.Thread, off uint64) {
	l := s.lockAlloc(t)
	defer l.Release(t)
	s.valloc.Free(t, off)
}

// pnAlloc carves a line-aligned persistent node from the slab.
func (s *Soft) pnAlloc(t *sim.Thread) uint64 {
	l := s.lockAlloc(t)
	defer l.Release(t)
	if head := s.vmem.Load(t, s.slabOff+1); head != 0 {
		s.vmem.Store(t, s.slabOff+1, s.pmem.Load(t, head+pnKey))
		return head
	}
	i := s.vmem.Load(t, s.slabOff)
	off := pnBase + i*pnWords
	if off+pnWords > s.pmem.Words() {
		panic("soft: persistent node slab exhausted")
	}
	s.vmem.Store(t, s.slabOff, i+1)
	return off
}

// pnFree pushes a node (already marked invalid and persisted) onto the
// volatile free list.
func (s *Soft) pnFree(t *sim.Thread, off uint64) {
	l := s.lockAlloc(t)
	defer l.Release(t)
	s.pmem.Store(t, off+pnKey, s.vmem.Load(t, s.slabOff+1))
	s.vmem.Store(t, s.slabOff+1, off)
}

func (s *Soft) bucket(key uint64) uint64 { return splitmix64(key) % s.cfg.Buckets }

func (s *Soft) lockBucket(t *sim.Thread, key uint64) *locks.TryLock {
	return s.lock(t, &s.bucketLocks[s.bucket(key)])
}

// Get returns the value for key or uc.NotFound. No flushes, no fences, no
// locks.
func (s *Soft) Get(t *sim.Thread, key uint64) uint64 {
	slot := s.bucketsOff + s.bucket(key)
	for n := s.vmem.Load(t, slot); n != 0; n = s.vmem.Load(t, n+vnNext) {
		if s.vmem.Load(t, n+vnKey) == key {
			return s.vmem.Load(t, n+vnVal)
		}
	}
	return uc.NotFound
}

// Contains reports (as 0/1) whether key is present.
func (s *Soft) Contains(t *sim.Thread, key uint64) uint64 {
	if s.Get(t, key) == uc.NotFound {
		return 0
	}
	return 1
}

// Insert adds or updates key. The only persistence work is one line flush
// plus one fence on the key's persistent node.
func (s *Soft) Insert(t *sim.Thread, key, val uint64, f *nvm.Flusher) uint64 {
	l := s.lockBucket(t, key)
	defer l.Release(t)
	slot := s.bucketsOff + s.bucket(key)
	for n := s.vmem.Load(t, slot); n != 0; n = s.vmem.Load(t, n+vnNext) {
		if s.vmem.Load(t, n+vnKey) == key {
			pn := s.vmem.Load(t, n+vnPNode)
			s.pmem.Store(t, pn+pnVal, val)
			f.FlushLine(t, s.pmem, pn)
			f.Fence(t)
			s.vmem.Store(t, n+vnVal, val)
			return 0
		}
	}
	// Persist the node first, then link it into the volatile index.
	pn := s.pnAlloc(t)
	s.pmem.Store(t, pn+pnKey, key)
	s.pmem.Store(t, pn+pnVal, val)
	s.pmem.Store(t, pn+pnValid, 1)
	f.FlushLine(t, s.pmem, pn)
	f.Fence(t)
	vn := s.vnAlloc(t)
	s.vmem.Store(t, vn+vnKey, key)
	s.vmem.Store(t, vn+vnVal, val)
	s.vmem.Store(t, vn+vnPNode, pn)
	s.vmem.Store(t, vn+vnNext, s.vmem.Load(t, slot))
	s.vmem.Store(t, slot, vn)
	return 1
}

// Delete removes key; one line flush plus one fence when present.
func (s *Soft) Delete(t *sim.Thread, key uint64, f *nvm.Flusher) uint64 {
	l := s.lockBucket(t, key)
	defer l.Release(t)
	slot := s.bucketsOff + s.bucket(key)
	prev := uint64(0)
	for n := s.vmem.Load(t, slot); n != 0; {
		next := s.vmem.Load(t, n+vnNext)
		if s.vmem.Load(t, n+vnKey) == key {
			pn := s.vmem.Load(t, n+vnPNode)
			s.pmem.Store(t, pn+pnValid, 0)
			f.FlushLine(t, s.pmem, pn)
			f.Fence(t)
			if prev == 0 {
				s.vmem.Store(t, slot, next)
			} else {
				s.vmem.Store(t, prev+vnNext, next)
			}
			s.vnFree(t, n)
			s.pnFree(t, pn)
			return 1
		}
		prev, n = n, next
	}
	return 0
}

// Execute adapts SOFT to the uc.UC interface so the harness can drive it
// like the universal constructions.
func (s *Soft) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	t.Step(s.sys.Costs().OpBase)
	switch op.Code {
	case uc.OpGet:
		return s.Get(t, op.A0)
	case uc.OpContains:
		return s.Contains(t, op.A0)
	case uc.OpInsert:
		return s.Insert(t, op.A0, op.A1, s.flusherFor(tid))
	case uc.OpDelete:
		return s.Delete(t, op.A0, s.flusherFor(tid))
	default:
		panic("soft: unsupported operation")
	}
}

// flusherFor returns worker tid's flusher (CLWB ordering is per hardware
// thread).
func (s *Soft) flusherFor(tid int) *nvm.Flusher {
	for len(s.flushers) <= tid {
		s.flushers = append(s.flushers, nil)
	}
	if s.flushers[tid] == nil {
		s.flushers[tid] = s.sys.NewFlusher()
	}
	return s.flushers[tid]
}

// Prefill inserts through the normal path (SOFT updates are cheap enough
// that prefill needs no shortcut).
func (s *Soft) Prefill(t *sim.Thread, ops []uc.Op) {
	f := s.flusherFor(0)
	for _, op := range ops {
		if op.Code == uc.OpInsert {
			s.Insert(t, op.A0, op.A1, f)
		}
	}
}

// Recover rebuilds a table after a crash by scanning the committed
// generation's persistent node slab — SOFT's actual recovery strategy
// (links are never persisted). Returns the rebuilt table and the number of
// recovered keys. cfg is the configuration the crashed lineage was booted
// with; the commit record flips to the rebuilt generation only after the
// scan completes, so Recover killed at any event re-runs from the same
// source.
func Recover(t *sim.Thread, recSys *nvm.System, cfg Config) (*Soft, uint64, error) {
	src, err := lineage.Source(recSys)
	if err != nil {
		return nil, 0, err
	}
	old := recSys.Memory(src.Name("persistent"))
	s := newEngine(t, recSys, cfg, src.Next(recSys))
	f := s.flusherFor(0)
	var recovered uint64
	for off := uint64(pnBase); off+pnWords <= old.Words(); off += pnWords {
		if old.Load(t, off+pnValid) == 1 {
			key := old.Load(t, off+pnKey)
			val := old.Load(t, off+pnVal)
			if s.Insert(t, key, val, f) == 1 {
				recovered++
			}
		}
	}
	s.lin.Commit(t)
	return s, recovered, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
