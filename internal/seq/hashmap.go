package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// HashMap is a resizable hashmap with chained buckets — the paper's
// "resizable linked list based hashmap". Keys and values are words.
//
// Heap layout:
//
//	header (4 words): [0] buckets array offset, [1] bucket count, [2] size
//	node   (4 words): [0] key, [1] value, [2] next
type HashMap struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	hmBuckets = 0
	hmNBucket = 1
	hmSize    = 2
	hmHdrLen  = 4

	hnKey   = 0
	hnVal   = 1
	hnNext  = 2
	hnWords = 4
)

// NewHashMap creates an empty map with the given initial bucket count
// (rounded up to at least 4) and records it in the heap's root slot.
func NewHashMap(t *sim.Thread, a *pmem.Allocator, initialBuckets uint64) *HashMap {
	if initialBuckets < 4 {
		initialBuckets = 4
	}
	h := &HashMap{a: a}
	h.hdr = a.Alloc(t, hmHdrLen)
	buckets := a.Alloc(t, initialBuckets)
	m := a.Memory()
	m.Store(t, h.hdr+hmBuckets, buckets)
	m.Store(t, h.hdr+hmNBucket, initialBuckets)
	m.Store(t, h.hdr+hmSize, 0)
	a.SetRoot(t, rootSlot, h.hdr)
	return h
}

// AttachHashMap re-opens a map previously created in this heap.
func AttachHashMap(t *sim.Thread, a *pmem.Allocator) *HashMap {
	return &HashMap{a: a, hdr: a.Root(t, rootSlot)}
}

// HashMapType describes the resizable hashmap with the given initial bucket
// count.
func HashMapType(initialBuckets uint64) uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewHashMap(t, a, initialBuckets) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachHashMap(t, a) },
	}
}

// Size returns the number of keys.
func (h *HashMap) Size(t *sim.Thread) uint64 {
	return h.a.Memory().Load(t, h.hdr+hmSize)
}

func (h *HashMap) bucketFor(t *sim.Thread, key uint64) uint64 {
	m := h.a.Memory()
	n := m.Load(t, h.hdr+hmNBucket)
	return m.Load(t, h.hdr+hmBuckets) + splitmix64(key)%n
}

// Get returns the value for key, or uc.NotFound.
func (h *HashMap) Get(t *sim.Thread, key uint64) uint64 {
	m := h.a.Memory()
	node := m.Load(t, h.bucketFor(t, key))
	for node != 0 {
		if m.Load(t, node+hnKey) == key {
			return m.Load(t, node+hnVal)
		}
		node = m.Load(t, node+hnNext)
	}
	return uc.NotFound
}

// Contains reports (as 0/1) whether key is present.
func (h *HashMap) Contains(t *sim.Thread, key uint64) uint64 {
	if h.Get(t, key) == uc.NotFound {
		return 0
	}
	return 1
}

// Put inserts or updates key. It returns 1 if the key was newly inserted,
// 0 if an existing value was replaced.
func (h *HashMap) Put(t *sim.Thread, key, val uint64) uint64 {
	m := h.a.Memory()
	slot := h.bucketFor(t, key)
	node := m.Load(t, slot)
	for n := node; n != 0; n = m.Load(t, n+hnNext) {
		if m.Load(t, n+hnKey) == key {
			m.Store(t, n+hnVal, val)
			return 0
		}
	}
	nn := h.a.Alloc(t, hnWords)
	m.Store(t, nn+hnKey, key)
	m.Store(t, nn+hnVal, val)
	m.Store(t, nn+hnNext, node)
	m.Store(t, slot, nn)
	size := m.Load(t, h.hdr+hmSize) + 1
	m.Store(t, h.hdr+hmSize, size)
	if size > 2*m.Load(t, h.hdr+hmNBucket) {
		h.resize(t)
	}
	return 1
}

// Delete removes key, returning 1 if it was present.
func (h *HashMap) Delete(t *sim.Thread, key uint64) uint64 {
	m := h.a.Memory()
	slot := h.bucketFor(t, key)
	prev := uint64(0)
	node := m.Load(t, slot)
	for node != 0 {
		next := m.Load(t, node+hnNext)
		if m.Load(t, node+hnKey) == key {
			if prev == 0 {
				m.Store(t, slot, next)
			} else {
				m.Store(t, prev+hnNext, next)
			}
			h.a.Free(t, node)
			m.Store(t, h.hdr+hmSize, m.Load(t, h.hdr+hmSize)-1)
			return 1
		}
		prev = node
		node = next
	}
	return 0
}

// resize doubles the bucket array and relinks every node.
func (h *HashMap) resize(t *sim.Thread) {
	m := h.a.Memory()
	oldBuckets := m.Load(t, h.hdr+hmBuckets)
	oldN := m.Load(t, h.hdr+hmNBucket)
	newN := oldN * 2
	newBuckets := h.a.Alloc(t, newN)
	for b := uint64(0); b < oldN; b++ {
		node := m.Load(t, oldBuckets+b)
		for node != 0 {
			next := m.Load(t, node+hnNext)
			slot := newBuckets + splitmix64(m.Load(t, node+hnKey))%newN
			m.Store(t, node+hnNext, m.Load(t, slot))
			m.Store(t, slot, node)
			node = next
		}
	}
	m.Store(t, h.hdr+hmBuckets, newBuckets)
	m.Store(t, h.hdr+hmNBucket, newN)
	h.a.Free(t, oldBuckets)
}

// Execute dispatches an encoded operation (the paper's Execute switch).
func (h *HashMap) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpGet:
		return h.Get(t, a0)
	case uc.OpContains:
		return h.Contains(t, a0)
	case uc.OpInsert:
		return h.Put(t, a0, a1)
	case uc.OpDelete:
		return h.Delete(t, a0)
	case uc.OpSize:
		return h.Size(t)
	default:
		return unknownOp("hashmap", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (h *HashMap) IsReadOnly(code uint64) bool {
	return code == uc.OpGet || code == uc.OpContains || code == uc.OpSize
}

// Dump emits one insert per key/value pair.
func (h *HashMap) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := h.a.Memory()
	buckets := m.Load(t, h.hdr+hmBuckets)
	n := m.Load(t, h.hdr+hmNBucket)
	for b := uint64(0); b < n; b++ {
		for node := m.Load(t, buckets+b); node != 0; node = m.Load(t, node+hnNext) {
			emit(uc.OpInsert, m.Load(t, node+hnKey), m.Load(t, node+hnVal))
		}
	}
}
