package nvm

import (
	"slices"
	"sync/atomic"
)

// Copy-on-write slabs back every Memory view (data, persisted, ownership,
// dirty state) so that creating, cloning and crash-recovering a System costs
// O(page tables) instead of O(words). A slab is a table of fixed-size
// reference-counted pages; a fresh slab's entries all alias one pinned
// all-zero page, a clone's entries alias the parent's pages, and either way
// a page is privatized the first time its slab writes to it.
//
// Reference counts are the only cross-goroutine state: crash-sweep harnesses
// run clones of one parent on concurrent host goroutines, and two clones may
// race to privatize the same shared page. Each copies, installs its private
// page in its own table, and atomically drops the shared count; the last
// table referencing a page sees ref==1 and writes in place. All other slab
// state (tables, vals of owned pages) is per-System and protected by the
// simulator's cooperative scheduling. share() itself mutates reference
// counts of pages the parent is using and must not run concurrently with
// parent access — Clone and Recover are host-side operations on a drained
// scheduler, which guarantees that.
const (
	pageWords = 512 // elements per page; multiple of WordsPerLine so lines never straddle pages
	pageShift = 9
	pageMask  = pageWords - 1
)

// page is one refcounted chunk of a slab. ref counts how many slab tables
// reference it; a slab may write vals in place only while its table is the
// sole referencer (ref==1).
type page[T any] struct {
	ref  int32
	vals []T
}

// slab is a COW array of T. The zero slab (nil table) is the "absent" state
// used for the persisted view of volatile memories.
type slab[T any] struct {
	pages []*page[T]
	// copied points at the owning system's PagesCopied metrics counter;
	// bumped once per page privatized on write.
	copied *uint64
}

// zeroPinned is the reference count of the shared all-zero page: large
// enough that writable() can never observe 1 and write to it, so the page
// stays zero for the lifetime of the slabs referencing it (decrements on
// privatization only ever drift it down by the number of table entries).
const zeroPinned = 1 << 30

// newZeroSlab returns an all-zero slab whose table entries all reference one
// pinned zero page, so creating it costs O(pages) table setup instead of
// O(n) zeroing. Fresh memories are all-zero by definition; pages materialize
// only as they are first written. The dominant host-side cost of booting
// (and crash-recovering) a machine with a large, sparsely touched heap is
// otherwise exactly this zeroing.
func newZeroSlab[T any](n uint64, copied *uint64) slab[T] {
	zero := &page[T]{ref: zeroPinned, vals: make([]T, pageWords)}
	pages := make([]*page[T], (n+pageWords-1)/pageWords)
	for i := range pages {
		pages[i] = zero
	}
	// A short final page aliases the full zero page too: slab indices stay
	// below n, so the surplus elements are simply never addressed.
	return slab[T]{pages: pages, copied: copied}
}

func (s *slab[T]) load(i uint64) T {
	return s.pages[i>>pageShift].vals[i&pageMask]
}

func (s *slab[T]) store(i uint64, v T) {
	p := s.pages[i>>pageShift]
	if atomic.LoadInt32(&p.ref) != 1 {
		p = s.privatize(i >> pageShift)
	}
	p.vals[i&pageMask] = v
}

// line returns n elements starting at base for reading. base must be
// line-aligned so the run cannot straddle a page (pageWords%WordsPerLine==0).
func (s *slab[T]) line(base, n uint64) []T {
	off := base & pageMask
	return s.pages[base>>pageShift].vals[off : off+n]
}

// wline is line for writing: the containing page is privatized first.
func (s *slab[T]) wline(base, n uint64) []T {
	p := s.pages[base>>pageShift]
	if atomic.LoadInt32(&p.ref) != 1 {
		p = s.privatize(base >> pageShift)
	}
	off := base & pageMask
	return p.vals[off : off+n]
}

// privatize replaces the shared page pi with a private copy. The copy
// completes before the old page's count is dropped, so a sibling that then
// observes ref==1 may write the old page in place without racing the copy.
// A copy of the zero page is a fresh zeroed allocation: nothing to read.
func (s *slab[T]) privatize(pi uint64) *page[T] {
	p := s.pages[pi]
	np := &page[T]{ref: 1}
	if p.zero() {
		np.vals = make([]T, pageWords)
	} else {
		np.vals = append([]T(nil), p.vals...)
	}
	s.pages[pi] = np
	atomic.AddInt32(&p.ref, -1)
	*s.copied++
	return np
}

// share returns a new slab referencing this slab's pages. The child records
// page copies into the given counter. Host-side only; must not race with
// simulated access to s.
func (s *slab[T]) share(copied *uint64) slab[T] {
	if s.pages == nil {
		return slab[T]{}
	}
	for _, p := range s.pages {
		atomic.AddInt32(&p.ref, 1)
	}
	return slab[T]{pages: append([]*page[T](nil), s.pages...), copied: copied}
}

// zero reports whether p is a zero page, which no slab writes.
func (p *page[T]) zero() bool { return atomic.LoadInt32(&p.ref) > zeroPinned/2 }

// sameSlabs reports whether a and b hold the same values. A page the two
// share, or a zero page in both, compares without a walk, so two fresh slabs
// compare in O(pages).
func sameSlabs[T comparable](a, b *slab[T]) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for i, p := range a.pages {
		if q := b.pages[i]; p != q && !(p.zero() && q.zero()) && !slices.Equal(p.vals, q.vals) {
			return false
		}
	}
	return true
}
