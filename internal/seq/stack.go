package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Stack is a linked LIFO stack of word values.
//
// Heap layout:
//
//	header (2 words): [0] top offset, [1] size
//	node   (2 words): [0] value, [1] next
type Stack struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	stTop    = 0
	stSize   = 1
	stHdrLen = 2

	snVal   = 0
	snNext  = 1
	snWords = 2
)

// NewStack creates an empty stack and records it in the heap's root slot.
func NewStack(t *sim.Thread, a *pmem.Allocator) *Stack {
	s := &Stack{a: a}
	s.hdr = a.Alloc(t, stHdrLen)
	m := a.Memory()
	m.Store(t, s.hdr+stTop, 0)
	m.Store(t, s.hdr+stSize, 0)
	a.SetRoot(t, rootSlot, s.hdr)
	return s
}

// AttachStack re-opens a stack previously created in this heap.
func AttachStack(t *sim.Thread, a *pmem.Allocator) *Stack {
	return &Stack{a: a, hdr: a.Root(t, rootSlot)}
}

// StackType describes the stack.
func StackType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewStack(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachStack(t, a) },
	}
}

// Size returns the number of stacked values.
func (s *Stack) Size(t *sim.Thread) uint64 {
	return s.a.Memory().Load(t, s.hdr+stSize)
}

// Push adds a value. Always returns 1.
func (s *Stack) Push(t *sim.Thread, val uint64) uint64 {
	m := s.a.Memory()
	n := s.a.Alloc(t, snWords)
	m.Store(t, n+snVal, val)
	m.Store(t, n+snNext, m.Load(t, s.hdr+stTop))
	m.Store(t, s.hdr+stTop, n)
	m.Store(t, s.hdr+stSize, m.Load(t, s.hdr+stSize)+1)
	return 1
}

// Pop removes and returns the top value, or uc.NotFound when empty.
func (s *Stack) Pop(t *sim.Thread) uint64 {
	m := s.a.Memory()
	top := m.Load(t, s.hdr+stTop)
	if top == 0 {
		return uc.NotFound
	}
	val := m.Load(t, top+snVal)
	m.Store(t, s.hdr+stTop, m.Load(t, top+snNext))
	s.a.Free(t, top)
	m.Store(t, s.hdr+stSize, m.Load(t, s.hdr+stSize)-1)
	return val
}

// Top returns the top value without removing it, or uc.NotFound.
func (s *Stack) Top(t *sim.Thread) uint64 {
	m := s.a.Memory()
	top := m.Load(t, s.hdr+stTop)
	if top == 0 {
		return uc.NotFound
	}
	return m.Load(t, top+snVal)
}

// Execute dispatches an encoded operation.
func (s *Stack) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpPush:
		return s.Push(t, a0)
	case uc.OpPop:
		return s.Pop(t)
	case uc.OpTop, uc.OpPeek:
		return s.Top(t)
	case uc.OpSize:
		return s.Size(t)
	default:
		return unknownOp("stack", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (s *Stack) IsReadOnly(code uint64) bool {
	return code == uc.OpTop || code == uc.OpPeek || code == uc.OpSize
}

// Dump emits pushes from the bottom of the stack upward so a replay
// reconstructs the same order.
func (s *Stack) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := s.a.Memory()
	var vals []uint64
	for n := m.Load(t, s.hdr+stTop); n != 0; n = m.Load(t, n+snNext) {
		vals = append(vals, m.Load(t, n+snVal))
	}
	for i := len(vals) - 1; i >= 0; i-- {
		emit(uc.OpPush, vals[i], 0)
	}
}
