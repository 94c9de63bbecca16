package core

import "prepuc/internal/sim"

// The replica's reader–writer lock scopes who may touch its heap, and these
// four helpers, the lock's only callers, say so to the memory (DESIGN.md §7,
// "Private memories"):
//
//   - while a thread holds the write lock, no other thread touches the heap,
//     so it is private to the writer (nvm.Memory.SetPrivate);
//   - while any thread holds a read lock, nobody stores to it, so it is
//     frozen under its readers (nvm.Memory.SetFrozen).
//
// Each declaration is made once the lock is held and ended before it is
// released, so the memory's own checks hold the lock to that contract: a
// writer's access under readers, or a reader's under a writer, is a bug
// panic naming both threads.

// writeLock takes the replica's write lock: its heap is private to t until
// writeUnlock.
func (r *replica) writeLock(t *sim.Thread) {
	r.rw.WriteLock(t)
	r.heap.SetPrivate(t, true)
}

// writeUnlock releases the heap, which settles t, and then the write lock.
func (r *replica) writeUnlock(t *sim.Thread) {
	r.heap.SetPrivate(t, false)
	r.rw.WriteUnlock(t)
}

// readLock takes the given reader slot of the replica's lock: its heap is
// frozen under t, among its other readers, until readUnlock.
func (r *replica) readLock(t *sim.Thread, slot int) {
	r.rw.ReadLock(t, slot)
	r.heap.SetFrozen(t, true)
}

// readUnlock releases t's hold on the heap, which settles t, and then the
// reader slot.
func (r *replica) readUnlock(t *sim.Thread, slot int) {
	r.heap.SetFrozen(t, false)
	r.rw.ReadUnlock(t, slot)
}
