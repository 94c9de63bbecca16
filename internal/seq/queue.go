package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Queue is a linked FIFO queue of word values (used by Figure 1c's 100%
// update enqueue/dequeue workload).
//
// Heap layout:
//
//	header (4 words): [0] head offset, [1] tail offset, [2] size
//	node   (2 words): [0] value, [1] next
type Queue struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	quHead   = 0
	quTail   = 1
	quSize   = 2
	quHdrLen = 4
)

// NewQueue creates an empty queue and records it in the heap's root slot.
func NewQueue(t *sim.Thread, a *pmem.Allocator) *Queue {
	q := &Queue{a: a}
	q.hdr = a.Alloc(t, quHdrLen)
	m := a.Memory()
	m.Store(t, q.hdr+quHead, 0)
	m.Store(t, q.hdr+quTail, 0)
	m.Store(t, q.hdr+quSize, 0)
	a.SetRoot(t, rootSlot, q.hdr)
	return q
}

// AttachQueue re-opens a queue previously created in this heap.
func AttachQueue(t *sim.Thread, a *pmem.Allocator) *Queue {
	return &Queue{a: a, hdr: a.Root(t, rootSlot)}
}

// QueueType describes the FIFO queue.
func QueueType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewQueue(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachQueue(t, a) },
	}
}

// Size returns the number of queued values.
func (q *Queue) Size(t *sim.Thread) uint64 {
	return q.a.Memory().Load(t, q.hdr+quSize)
}

// Enqueue appends a value. Always returns 1.
func (q *Queue) Enqueue(t *sim.Thread, val uint64) uint64 {
	m := q.a.Memory()
	n := q.a.Alloc(t, snWords)
	m.Store(t, n+snVal, val)
	m.Store(t, n+snNext, 0)
	tail := m.Load(t, q.hdr+quTail)
	if tail == 0 {
		m.Store(t, q.hdr+quHead, n)
	} else {
		m.Store(t, tail+snNext, n)
	}
	m.Store(t, q.hdr+quTail, n)
	m.Store(t, q.hdr+quSize, m.Load(t, q.hdr+quSize)+1)
	return 1
}

// Dequeue removes and returns the oldest value, or uc.NotFound when empty.
func (q *Queue) Dequeue(t *sim.Thread) uint64 {
	m := q.a.Memory()
	head := m.Load(t, q.hdr+quHead)
	if head == 0 {
		return uc.NotFound
	}
	val := m.Load(t, head+snVal)
	next := m.Load(t, head+snNext)
	m.Store(t, q.hdr+quHead, next)
	if next == 0 {
		m.Store(t, q.hdr+quTail, 0)
	}
	q.a.Free(t, head)
	m.Store(t, q.hdr+quSize, m.Load(t, q.hdr+quSize)-1)
	return val
}

// Peek returns the oldest value without removing it, or uc.NotFound.
func (q *Queue) Peek(t *sim.Thread) uint64 {
	m := q.a.Memory()
	head := m.Load(t, q.hdr+quHead)
	if head == 0 {
		return uc.NotFound
	}
	return m.Load(t, head+snVal)
}

// Execute dispatches an encoded operation.
func (q *Queue) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpEnqueue:
		return q.Enqueue(t, a0)
	case uc.OpDequeue:
		return q.Dequeue(t)
	case uc.OpPeek:
		return q.Peek(t)
	case uc.OpSize:
		return q.Size(t)
	default:
		return unknownOp("queue", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (q *Queue) IsReadOnly(code uint64) bool {
	return code == uc.OpPeek || code == uc.OpSize
}

// Dump emits enqueues head-to-tail so a replay reconstructs FIFO order.
func (q *Queue) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := q.a.Memory()
	for n := m.Load(t, q.hdr+quHead); n != 0; n = m.Load(t, n+snNext) {
		emit(uc.OpEnqueue, m.Load(t, n+snVal), 0)
	}
}
