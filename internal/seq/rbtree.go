package seq

import (
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// RBTree is a red-black tree keyed map (CLRS-style, with an explicit NIL
// sentinel node so rotations and delete fixups need no special cases).
//
// Heap layout:
//
//	header (4 words): [0] root offset, [1] size, [2] sentinel offset
//	node   (8 words): [0] key, [1] value, [2] left, [3] right, [4] parent,
//	                  [5] color (0 = black, 1 = red)
type RBTree struct {
	a   *pmem.Allocator
	hdr uint64
}

const (
	rtRoot   = 0
	rtSize   = 1
	rtNil    = 2
	rtHdrLen = 4

	rnKey    = 0
	rnVal    = 1
	rnLeft   = 2
	rnRight  = 3
	rnParent = 4
	rnColor  = 5
	rnWords  = 8

	black = 0
	red   = 1
)

// NewRBTree creates an empty tree and records it in the heap's root slot.
func NewRBTree(t *sim.Thread, a *pmem.Allocator) *RBTree {
	r := &RBTree{a: a}
	r.hdr = a.Alloc(t, rtHdrLen)
	m := a.Memory()
	sentinel := a.Alloc(t, rnWords) // all-zero: black, self-ish pointers unused
	m.Store(t, r.hdr+rtNil, sentinel)
	m.Store(t, r.hdr+rtRoot, sentinel)
	m.Store(t, r.hdr+rtSize, 0)
	a.SetRoot(t, rootSlot, r.hdr)
	return r
}

// AttachRBTree re-opens a tree previously created in this heap.
func AttachRBTree(t *sim.Thread, a *pmem.Allocator) *RBTree {
	return &RBTree{a: a, hdr: a.Root(t, rootSlot)}
}

// RBTreeType describes the red-black tree set.
func RBTreeType() uc.ObjectType {
	return uc.ObjectType{
		New:    func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return NewRBTree(t, a) },
		Attach: func(t *sim.Thread, a *pmem.Allocator) uc.DataStructure { return AttachRBTree(t, a) },
	}
}

func (r *RBTree) nilNode(t *sim.Thread) uint64 { return r.a.Memory().Load(t, r.hdr+rtNil) }
func (r *RBTree) root(t *sim.Thread) uint64    { return r.a.Memory().Load(t, r.hdr+rtRoot) }
func (r *RBTree) setRoot(t *sim.Thread, n uint64) {
	r.a.Memory().Store(t, r.hdr+rtRoot, n)
}

// Size returns the number of keys.
func (r *RBTree) Size(t *sim.Thread) uint64 {
	return r.a.Memory().Load(t, r.hdr+rtSize)
}

// find returns the node holding key, or the sentinel.
func (r *RBTree) find(t *sim.Thread, key uint64) uint64 {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	n := r.root(t)
	for n != nilN {
		k := m.Load(t, n+rnKey)
		switch {
		case key == k:
			return n
		case key < k:
			n = m.Load(t, n+rnLeft)
		default:
			n = m.Load(t, n+rnRight)
		}
	}
	return nilN
}

// Get returns the value for key, or uc.NotFound.
func (r *RBTree) Get(t *sim.Thread, key uint64) uint64 {
	n := r.find(t, key)
	if n == r.nilNode(t) {
		return uc.NotFound
	}
	return r.a.Memory().Load(t, n+rnVal)
}

// Contains reports (as 0/1) whether key is present.
func (r *RBTree) Contains(t *sim.Thread, key uint64) uint64 {
	if r.find(t, key) == r.nilNode(t) {
		return 0
	}
	return 1
}

func (r *RBTree) rotateLeft(t *sim.Thread, x uint64) {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	y := m.Load(t, x+rnRight)
	yl := m.Load(t, y+rnLeft)
	m.Store(t, x+rnRight, yl)
	if yl != nilN {
		m.Store(t, yl+rnParent, x)
	}
	xp := m.Load(t, x+rnParent)
	m.Store(t, y+rnParent, xp)
	if xp == nilN {
		r.setRoot(t, y)
	} else if m.Load(t, xp+rnLeft) == x {
		m.Store(t, xp+rnLeft, y)
	} else {
		m.Store(t, xp+rnRight, y)
	}
	m.Store(t, y+rnLeft, x)
	m.Store(t, x+rnParent, y)
}

func (r *RBTree) rotateRight(t *sim.Thread, x uint64) {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	y := m.Load(t, x+rnLeft)
	yr := m.Load(t, y+rnRight)
	m.Store(t, x+rnLeft, yr)
	if yr != nilN {
		m.Store(t, yr+rnParent, x)
	}
	xp := m.Load(t, x+rnParent)
	m.Store(t, y+rnParent, xp)
	if xp == nilN {
		r.setRoot(t, y)
	} else if m.Load(t, xp+rnRight) == x {
		m.Store(t, xp+rnRight, y)
	} else {
		m.Store(t, xp+rnLeft, y)
	}
	m.Store(t, y+rnRight, x)
	m.Store(t, x+rnParent, y)
}

// Put inserts or updates key. Returns 1 if newly inserted, 0 if replaced.
func (r *RBTree) Put(t *sim.Thread, key, val uint64) uint64 {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	parent := nilN
	cur := r.root(t)
	for cur != nilN {
		parent = cur
		k := m.Load(t, cur+rnKey)
		switch {
		case key == k:
			m.Store(t, cur+rnVal, val)
			return 0
		case key < k:
			cur = m.Load(t, cur+rnLeft)
		default:
			cur = m.Load(t, cur+rnRight)
		}
	}
	z := r.a.Alloc(t, rnWords)
	m.Store(t, z+rnKey, key)
	m.Store(t, z+rnVal, val)
	m.Store(t, z+rnLeft, nilN)
	m.Store(t, z+rnRight, nilN)
	m.Store(t, z+rnParent, parent)
	m.Store(t, z+rnColor, red)
	if parent == nilN {
		r.setRoot(t, z)
	} else if key < m.Load(t, parent+rnKey) {
		m.Store(t, parent+rnLeft, z)
	} else {
		m.Store(t, parent+rnRight, z)
	}
	r.insertFixup(t, z)
	m.Store(t, r.hdr+rtSize, m.Load(t, r.hdr+rtSize)+1)
	return 1
}

func (r *RBTree) insertFixup(t *sim.Thread, z uint64) {
	m := r.a.Memory()
	for {
		zp := m.Load(t, z+rnParent)
		if m.Load(t, zp+rnColor) != red {
			break
		}
		zpp := m.Load(t, zp+rnParent)
		if zp == m.Load(t, zpp+rnLeft) {
			y := m.Load(t, zpp+rnRight) // uncle
			if m.Load(t, y+rnColor) == red {
				m.Store(t, zp+rnColor, black)
				m.Store(t, y+rnColor, black)
				m.Store(t, zpp+rnColor, red)
				z = zpp
				continue
			}
			if z == m.Load(t, zp+rnRight) {
				z = zp
				r.rotateLeft(t, z)
				zp = m.Load(t, z+rnParent)
				zpp = m.Load(t, zp+rnParent)
			}
			m.Store(t, zp+rnColor, black)
			m.Store(t, zpp+rnColor, red)
			r.rotateRight(t, zpp)
		} else {
			y := m.Load(t, zpp+rnLeft)
			if m.Load(t, y+rnColor) == red {
				m.Store(t, zp+rnColor, black)
				m.Store(t, y+rnColor, black)
				m.Store(t, zpp+rnColor, red)
				z = zpp
				continue
			}
			if z == m.Load(t, zp+rnLeft) {
				z = zp
				r.rotateRight(t, z)
				zp = m.Load(t, z+rnParent)
				zpp = m.Load(t, zp+rnParent)
			}
			m.Store(t, zp+rnColor, black)
			m.Store(t, zpp+rnColor, red)
			r.rotateLeft(t, zpp)
		}
	}
	m.Store(t, r.root(t)+rnColor, black)
}

// transplant replaces subtree u with subtree v.
func (r *RBTree) transplant(t *sim.Thread, u, v uint64) {
	m := r.a.Memory()
	up := m.Load(t, u+rnParent)
	if up == r.nilNode(t) {
		r.setRoot(t, v)
	} else if u == m.Load(t, up+rnLeft) {
		m.Store(t, up+rnLeft, v)
	} else {
		m.Store(t, up+rnRight, v)
	}
	m.Store(t, v+rnParent, up)
}

func (r *RBTree) minimum(t *sim.Thread, n uint64) uint64 {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	for {
		l := m.Load(t, n+rnLeft)
		if l == nilN {
			return n
		}
		n = l
	}
}

// Delete removes key, returning 1 if it was present.
func (r *RBTree) Delete(t *sim.Thread, key uint64) uint64 {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	z := r.find(t, key)
	if z == nilN {
		return 0
	}
	y := z
	yColor := m.Load(t, y+rnColor)
	var x uint64
	if m.Load(t, z+rnLeft) == nilN {
		x = m.Load(t, z+rnRight)
		r.transplant(t, z, x)
	} else if m.Load(t, z+rnRight) == nilN {
		x = m.Load(t, z+rnLeft)
		r.transplant(t, z, x)
	} else {
		y = r.minimum(t, m.Load(t, z+rnRight))
		yColor = m.Load(t, y+rnColor)
		x = m.Load(t, y+rnRight)
		if m.Load(t, y+rnParent) == z {
			m.Store(t, x+rnParent, y) // meaningful even when x is sentinel
		} else {
			r.transplant(t, y, x)
			zr := m.Load(t, z+rnRight)
			m.Store(t, y+rnRight, zr)
			m.Store(t, zr+rnParent, y)
		}
		r.transplant(t, z, y)
		zl := m.Load(t, z+rnLeft)
		m.Store(t, y+rnLeft, zl)
		m.Store(t, zl+rnParent, y)
		m.Store(t, y+rnColor, m.Load(t, z+rnColor))
	}
	r.a.Free(t, z)
	if yColor == black {
		r.deleteFixup(t, x)
	}
	m.Store(t, r.hdr+rtSize, m.Load(t, r.hdr+rtSize)-1)
	return 1
}

func (r *RBTree) deleteFixup(t *sim.Thread, x uint64) {
	m := r.a.Memory()
	for x != r.root(t) && m.Load(t, x+rnColor) == black {
		xp := m.Load(t, x+rnParent)
		if x == m.Load(t, xp+rnLeft) {
			w := m.Load(t, xp+rnRight)
			if m.Load(t, w+rnColor) == red {
				m.Store(t, w+rnColor, black)
				m.Store(t, xp+rnColor, red)
				r.rotateLeft(t, xp)
				w = m.Load(t, xp+rnRight)
			}
			wl := m.Load(t, w+rnLeft)
			wr := m.Load(t, w+rnRight)
			if m.Load(t, wl+rnColor) == black && m.Load(t, wr+rnColor) == black {
				m.Store(t, w+rnColor, red)
				x = xp
				continue
			}
			if m.Load(t, wr+rnColor) == black {
				m.Store(t, wl+rnColor, black)
				m.Store(t, w+rnColor, red)
				r.rotateRight(t, w)
				w = m.Load(t, xp+rnRight)
				wr = m.Load(t, w+rnRight)
			}
			m.Store(t, w+rnColor, m.Load(t, xp+rnColor))
			m.Store(t, xp+rnColor, black)
			m.Store(t, wr+rnColor, black)
			r.rotateLeft(t, xp)
			x = r.root(t)
		} else {
			w := m.Load(t, xp+rnLeft)
			if m.Load(t, w+rnColor) == red {
				m.Store(t, w+rnColor, black)
				m.Store(t, xp+rnColor, red)
				r.rotateRight(t, xp)
				w = m.Load(t, xp+rnLeft)
			}
			wl := m.Load(t, w+rnLeft)
			wr := m.Load(t, w+rnRight)
			if m.Load(t, wr+rnColor) == black && m.Load(t, wl+rnColor) == black {
				m.Store(t, w+rnColor, red)
				x = xp
				continue
			}
			if m.Load(t, wl+rnColor) == black {
				m.Store(t, wr+rnColor, black)
				m.Store(t, w+rnColor, red)
				r.rotateLeft(t, w)
				w = m.Load(t, xp+rnLeft)
				wl = m.Load(t, w+rnLeft)
			}
			m.Store(t, w+rnColor, m.Load(t, xp+rnColor))
			m.Store(t, xp+rnColor, black)
			m.Store(t, wl+rnColor, black)
			r.rotateRight(t, xp)
			x = r.root(t)
		}
	}
	m.Store(t, x+rnColor, black)
}

// Execute dispatches an encoded operation.
func (r *RBTree) Execute(t *sim.Thread, code, a0, a1 uint64) uint64 {
	switch code {
	case uc.OpGet:
		return r.Get(t, a0)
	case uc.OpContains:
		return r.Contains(t, a0)
	case uc.OpInsert:
		return r.Put(t, a0, a1)
	case uc.OpDelete:
		return r.Delete(t, a0)
	case uc.OpSize:
		return r.Size(t)
	default:
		return unknownOp("rbtree", code)
	}
}

// IsReadOnly implements uc.DataStructure.
func (r *RBTree) IsReadOnly(code uint64) bool {
	return code == uc.OpGet || code == uc.OpContains || code == uc.OpSize
}

// Dump emits one insert per key in order (in-order traversal without
// recursion, using parent pointers).
func (r *RBTree) Dump(t *sim.Thread, emit func(code, a0, a1 uint64)) {
	m := r.a.Memory()
	nilN := r.nilNode(t)
	n := r.root(t)
	if n == nilN {
		return
	}
	// descend to minimum
	for m.Load(t, n+rnLeft) != nilN {
		n = m.Load(t, n+rnLeft)
	}
	for n != nilN {
		emit(uc.OpInsert, m.Load(t, n+rnKey), m.Load(t, n+rnVal))
		// successor
		if right := m.Load(t, n+rnRight); right != nilN {
			n = right
			for m.Load(t, n+rnLeft) != nilN {
				n = m.Load(t, n+rnLeft)
			}
		} else {
			p := m.Load(t, n+rnParent)
			for p != nilN && n == m.Load(t, p+rnRight) {
				n = p
				p = m.Load(t, p+rnParent)
			}
			n = p
		}
	}
}
