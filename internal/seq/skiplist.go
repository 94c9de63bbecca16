package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// SkipList is a sorted map implemented as a skip list. It extends the
// paper's evaluated structures with another classic universal-construction
// input; the harness's extension experiment compares the PUCs over it.
//
// Tower heights come from a deterministic xorshift generator whose state is
// part of the structure (stored in the header), so replicas built by
// replaying the same log converge to identical shapes — a property the
// universal constructions rely on only for determinism of responses, but
// one that also makes cross-replica comparison in tests exact.
//
// Heap layout:
//
//	header (4 words): [0] head node, [1] size, [2] rng state
//	node: [0] key, [1] value, [2] level count, [3…3+levels) next pointers
type SkipList struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	slHead   = 0
	slSize   = 1
	slRng    = 2
	slHdrLen = 4

	slnKey   = 0
	slnVal   = 1
	slnLvl   = 2
	slnNext0 = 3

	slMaxLevel = 20
)

// NewSkipList creates an empty skip list and records it in the heap's root
// slot.
func NewSkipList(t *sim.Thread, a *pmem.Allocator) *SkipList {
	s := &SkipList{a: a}
	s.hdr = a.Alloc(t, slHdrLen)
	m := a.Memory()
	head := a.Alloc(t, slnNext0+slMaxLevel)
	m.Store(t, head+slnLvl, slMaxLevel)
	m.Store(t, s.hdr+slHead, head)
	m.Store(t, s.hdr+slSize, 0)
	m.Store(t, s.hdr+slRng, 0x243F6A8885A308D3)
	a.SetRoot(t, rootSlot, s.hdr)
	return s
}

// AttachSkipList re-opens a skip list previously created in this heap.
func AttachSkipList(t *sim.Thread, a *pmem.Allocator) *SkipList {
	return &SkipList{a: a, hdr: a.Root(t, rootSlot)}
}

// SkipListType describes the skip-list set.
func SkipListType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewSkipList(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachSkipList(t, a) },
	}
}

// Size returns the number of keys.
func (s *SkipList) Size(t *sim.Thread) uint64 {
	return s.a.Memory().Load(t, s.hdr+slSize)
}

// randLevel draws a tower height from the structure's deterministic rng.
func (s *SkipList) randLevel(t *sim.Thread) uint64 {
	m := s.a.Memory()
	x := m.Load(t, s.hdr+slRng)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.Store(t, s.hdr+slRng, x)
	lvl := uint64(1)
	for x&3 == 0 && lvl < slMaxLevel { // p = 1/4
		lvl++
		x >>= 2
	}
	return lvl
}

// next returns node n's level-l successor.
func (s *SkipList) next(t *sim.Thread, n, l uint64) uint64 {
	return s.a.Memory().Load(t, n+slnNext0+l)
}

// findPreds fills preds with the last node before key at every level and
// returns the candidate node at level 0 (which may or may not hold key).
func (s *SkipList) findPreds(t *sim.Thread, key uint64, preds *[slMaxLevel]uint64) uint64 {
	m := s.a.Memory()
	n := m.Load(t, s.hdr+slHead)
	for l := int(slMaxLevel) - 1; l >= 0; l-- {
		for {
			nx := s.next(t, n, uint64(l))
			if nx == 0 || m.Load(t, nx+slnKey) >= key {
				break
			}
			n = nx
		}
		preds[l] = n
	}
	return s.next(t, n, 0)
}

// Get returns the value for key, or uc.NotFound.
func (s *SkipList) Get(t *sim.Thread, key uint64) uint64 {
	var preds [slMaxLevel]uint64
	n := s.findPreds(t, key, &preds)
	m := s.a.Memory()
	if n != 0 && m.Load(t, n+slnKey) == key {
		return m.Load(t, n+slnVal)
	}
	return uc.NotFound
}

// Contains reports (as 0/1) whether key is present.
func (s *SkipList) Contains(t *sim.Thread, key uint64) uint64 {
	if s.Get(t, key) == uc.NotFound {
		return 0
	}
	return 1
}

// Put inserts or updates key. Returns 1 if newly inserted, 0 if replaced.
func (s *SkipList) Put(t *sim.Thread, key, val uint64) uint64 {
	m := s.a.Memory()
	var preds [slMaxLevel]uint64
	n := s.findPreds(t, key, &preds)
	if n != 0 && m.Load(t, n+slnKey) == key {
		m.Store(t, n+slnVal, val)
		return 0
	}
	lvl := s.randLevel(t)
	nn := s.a.Alloc(t, slnNext0+lvl)
	m.Store(t, nn+slnKey, key)
	m.Store(t, nn+slnVal, val)
	m.Store(t, nn+slnLvl, lvl)
	for l := uint64(0); l < lvl; l++ {
		m.Store(t, nn+slnNext0+l, s.next(t, preds[l], l))
		m.Store(t, preds[l]+slnNext0+l, nn)
	}
	m.Store(t, s.hdr+slSize, m.Load(t, s.hdr+slSize)+1)
	return 1
}

// Delete removes key, returning 1 if it was present.
func (s *SkipList) Delete(t *sim.Thread, key uint64) uint64 {
	m := s.a.Memory()
	var preds [slMaxLevel]uint64
	n := s.findPreds(t, key, &preds)
	if n == 0 || m.Load(t, n+slnKey) != key {
		return 0
	}
	lvl := m.Load(t, n+slnLvl)
	for l := uint64(0); l < lvl; l++ {
		if s.next(t, preds[l], l) == n {
			m.Store(t, preds[l]+slnNext0+l, s.next(t, n, l))
		}
	}
	s.a.Free(t, n)
	m.Store(t, s.hdr+slSize, m.Load(t, s.hdr+slSize)-1)
	return 1
}

// Execute dispatches an encoded operation.
func (s *SkipList) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpGet:
		return s.Get(t, a0)
	case uc.OpContains:
		return s.Contains(t, a0)
	case uc.OpInsert:
		return s.Put(t, a0, a1)
	case uc.OpDelete:
		return s.Delete(t, a0)
	case uc.OpSize:
		return s.Size(t)
	default:
		return unknownOp("skiplist", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (s *SkipList) IsReadOnly(code uint64) bool {
	return code == uc.OpGet || code == uc.OpContains || code == uc.OpSize
}

// Dump emits one insert per key in ascending order.
func (s *SkipList) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := s.a.Memory()
	for n := s.next(t, m.Load(t, s.hdr+slHead), 0); n != 0; n = s.next(t, n, 0) {
		emit(uc.OpInsert, m.Load(t, n+slnKey), m.Load(t, n+slnVal))
	}
}
