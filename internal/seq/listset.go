package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ListSet is a sorted singly-linked-list map — the simplest sequential set
// and the classic worst case for coarse constructions (O(n) operations make
// the construction overhead proportionally small, which is the regime where
// universal constructions shine).
//
// Heap layout:
//
//	header (2 words): [0] head, [1] size
//	node   (4 words): [0] key, [1] value, [2] next
type ListSet struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	lsHead   = 0
	lsSize   = 1
	lsHdrLen = 2
)

// NewListSet creates an empty list and records it in the heap's root slot.
func NewListSet(t *sim.Thread, a *pmem.Allocator) *ListSet {
	l := &ListSet{a: a}
	l.hdr = a.Alloc(t, lsHdrLen)
	m := a.Memory()
	m.Store(t, l.hdr+lsHead, 0)
	m.Store(t, l.hdr+lsSize, 0)
	a.SetRoot(t, rootSlot, l.hdr)
	return l
}

// AttachListSet re-opens a list previously created in this heap.
func AttachListSet(t *sim.Thread, a *pmem.Allocator) *ListSet {
	return &ListSet{a: a, hdr: a.Root(t, rootSlot)}
}

// ListSetType describes the sorted linked-list set.
func ListSetType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewListSet(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachListSet(t, a) },
	}
}

// Size returns the number of keys.
func (l *ListSet) Size(t *sim.Thread) uint64 {
	return l.a.Memory().Load(t, l.hdr+lsSize)
}

// locate returns (pred, node) where node is the first node with key ≥ key
// and pred its predecessor (0 = the header position).
func (l *ListSet) locate(t *sim.Thread, key uint64) (pred, node uint64) {
	m := l.a.Memory()
	node = m.Load(t, l.hdr+lsHead)
	for node != 0 && m.Load(t, node+hnKey) < key {
		pred = node
		node = m.Load(t, node+hnNext)
	}
	return pred, node
}

// Get returns the value for key, or uc.NotFound.
func (l *ListSet) Get(t *sim.Thread, key uint64) uint64 {
	m := l.a.Memory()
	_, n := l.locate(t, key)
	if n != 0 && m.Load(t, n+hnKey) == key {
		return m.Load(t, n+hnVal)
	}
	return uc.NotFound
}

// Contains reports (as 0/1) whether key is present.
func (l *ListSet) Contains(t *sim.Thread, key uint64) uint64 {
	if l.Get(t, key) == uc.NotFound {
		return 0
	}
	return 1
}

// Put inserts or updates key. Returns 1 if newly inserted, 0 if replaced.
func (l *ListSet) Put(t *sim.Thread, key, val uint64) uint64 {
	m := l.a.Memory()
	pred, n := l.locate(t, key)
	if n != 0 && m.Load(t, n+hnKey) == key {
		m.Store(t, n+hnVal, val)
		return 0
	}
	nn := l.a.Alloc(t, hnWords)
	m.Store(t, nn+hnKey, key)
	m.Store(t, nn+hnVal, val)
	m.Store(t, nn+hnNext, n)
	if pred == 0 {
		m.Store(t, l.hdr+lsHead, nn)
	} else {
		m.Store(t, pred+hnNext, nn)
	}
	m.Store(t, l.hdr+lsSize, m.Load(t, l.hdr+lsSize)+1)
	return 1
}

// Delete removes key, returning 1 if it was present.
func (l *ListSet) Delete(t *sim.Thread, key uint64) uint64 {
	m := l.a.Memory()
	pred, n := l.locate(t, key)
	if n == 0 || m.Load(t, n+hnKey) != key {
		return 0
	}
	next := m.Load(t, n+hnNext)
	if pred == 0 {
		m.Store(t, l.hdr+lsHead, next)
	} else {
		m.Store(t, pred+hnNext, next)
	}
	l.a.Free(t, n)
	m.Store(t, l.hdr+lsSize, m.Load(t, l.hdr+lsSize)-1)
	return 1
}

// Execute dispatches an encoded operation.
func (l *ListSet) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpGet:
		return l.Get(t, a0)
	case uc.OpContains:
		return l.Contains(t, a0)
	case uc.OpInsert:
		return l.Put(t, a0, a1)
	case uc.OpDelete:
		return l.Delete(t, a0)
	case uc.OpSize:
		return l.Size(t)
	default:
		return unknownOp("listset", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (l *ListSet) IsReadOnly(code uint64) bool {
	return code == uc.OpGet || code == uc.OpContains || code == uc.OpSize
}

// Dump emits one insert per key in ascending order.
func (l *ListSet) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := l.a.Memory()
	for n := m.Load(t, l.hdr+lsHead); n != 0; n = m.Load(t, n+hnNext) {
		emit(uc.OpInsert, m.Load(t, n+hnKey), m.Load(t, n+hnVal))
	}
}
