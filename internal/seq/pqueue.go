package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// PQueue is a binary min-heap priority queue of word keys, the simulated
// counterpart of the C++ standard library priority_queue used in §6.
//
// Heap layout:
//
//	header (4 words): [0] array offset, [1] capacity, [2] size
//	array: capacity words of keys
type PQueue struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	pqArr    = 0
	pqCap    = 1
	pqSize   = 2
	pqHdrLen = 4

	pqInitialCap = 16
)

// NewPQueue creates an empty priority queue and records it in the heap's
// root slot.
func NewPQueue(t *sim.Thread, a *pmem.Allocator) *PQueue {
	p := &PQueue{a: a}
	p.hdr = a.Alloc(t, pqHdrLen)
	arr := a.Alloc(t, pqInitialCap)
	m := a.Memory()
	m.Store(t, p.hdr+pqArr, arr)
	m.Store(t, p.hdr+pqCap, pqInitialCap)
	m.Store(t, p.hdr+pqSize, 0)
	a.SetRoot(t, rootSlot, p.hdr)
	return p
}

// AttachPQueue re-opens a priority queue previously created in this heap.
func AttachPQueue(t *sim.Thread, a *pmem.Allocator) *PQueue {
	return &PQueue{a: a, hdr: a.Root(t, rootSlot)}
}

// PQueueType describes the priority queue.
func PQueueType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewPQueue(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachPQueue(t, a) },
	}
}

// Size returns the number of queued keys.
func (p *PQueue) Size(t *sim.Thread) uint64 {
	return p.a.Memory().Load(t, p.hdr+pqSize)
}

// Enqueue inserts a key. Always returns 1.
func (p *PQueue) Enqueue(t *sim.Thread, key uint64) uint64 {
	m := p.a.Memory()
	size := m.Load(t, p.hdr+pqSize)
	cap := m.Load(t, p.hdr+pqCap)
	arr := m.Load(t, p.hdr+pqArr)
	if size == cap {
		newCap := cap * 2
		newArr := p.a.Alloc(t, newCap)
		for i := uint64(0); i < size; i++ {
			m.Store(t, newArr+i, m.Load(t, arr+i))
		}
		p.a.Free(t, arr)
		arr = newArr
		m.Store(t, p.hdr+pqArr, arr)
		m.Store(t, p.hdr+pqCap, newCap)
	}
	// sift up
	i := size
	m.Store(t, arr+i, key)
	for i > 0 {
		parent := (i - 1) / 2
		pv := m.Load(t, arr+parent)
		if pv <= key {
			break
		}
		m.Store(t, arr+i, pv)
		m.Store(t, arr+parent, key)
		i = parent
	}
	m.Store(t, p.hdr+pqSize, size+1)
	return 1
}

// Min returns the smallest key without removing it, or uc.NotFound.
func (p *PQueue) Min(t *sim.Thread) uint64 {
	m := p.a.Memory()
	if m.Load(t, p.hdr+pqSize) == 0 {
		return uc.NotFound
	}
	return m.Load(t, m.Load(t, p.hdr+pqArr))
}

// DeleteMin removes and returns the smallest key, or uc.NotFound when empty.
func (p *PQueue) DeleteMin(t *sim.Thread) uint64 {
	m := p.a.Memory()
	size := m.Load(t, p.hdr+pqSize)
	if size == 0 {
		return uc.NotFound
	}
	arr := m.Load(t, p.hdr+pqArr)
	min := m.Load(t, arr)
	last := m.Load(t, arr+size-1)
	size--
	m.Store(t, p.hdr+pqSize, size)
	if size == 0 {
		return min
	}
	// sift down
	i := uint64(0)
	m.Store(t, arr, last)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		sv := m.Load(t, arr+smallest)
		if l < size {
			if lv := m.Load(t, arr+l); lv < sv {
				smallest, sv = l, lv
			}
		}
		if r < size {
			if rv := m.Load(t, arr+r); rv < sv {
				smallest, sv = r, rv
			}
		}
		if smallest == i {
			break
		}
		m.Store(t, arr+smallest, m.Load(t, arr+i))
		m.Store(t, arr+i, sv)
		i = smallest
	}
	return min
}

// Execute dispatches an encoded operation.
func (p *PQueue) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpEnqueue, uc.OpInsert:
		return p.Enqueue(t, a0)
	case uc.OpDequeue, uc.OpDeleteMin:
		return p.DeleteMin(t)
	case uc.OpMin, uc.OpPeek:
		return p.Min(t)
	case uc.OpSize:
		return p.Size(t)
	default:
		return unknownOp("pqueue", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (p *PQueue) IsReadOnly(code uint64) bool {
	return code == uc.OpMin || code == uc.OpPeek || code == uc.OpSize
}

// Dump emits one enqueue per stored key (heap order; re-inserting in any
// order rebuilds an equivalent priority queue).
func (p *PQueue) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := p.a.Memory()
	arr := m.Load(t, p.hdr+pqArr)
	size := m.Load(t, p.hdr+pqSize)
	for i := uint64(0); i < size; i++ {
		emit(uc.OpEnqueue, m.Load(t, arr+i), 0)
	}
}
