package core

import "prepuc/internal/sim"

// The replica's reader–writer lock scopes who may touch its heap, and these
// four helpers, the lock's only callers, say so to the memory (DESIGN.md §7,
// "Private memories"):
//
//   - while a thread holds the write lock, no other thread touches the heap,
//     so the writer holds it alone (nvm.Memory.Hold(t, true));
//   - while any thread holds a read lock, nobody stores to it, so its
//     readers hold it together (nvm.Memory.Hold(t, false)).
//
// Each hold is taken once the lock is held and released before the lock is,
// so the memory's own checks hold the lock to that contract: a writer's
// access under readers, or a reader's under a writer, is a bug panic naming
// both threads.

// writeLock takes the replica's write lock: t holds its heap alone until
// writeUnlock.
func (r *replica) writeLock(t *sim.Thread) {
	r.rw.WriteLock(t)
	r.heap.Hold(t, true)
}

// writeUnlock releases the heap, which settles t, and then the write lock.
func (r *replica) writeUnlock(t *sim.Thread) {
	r.heap.Release(t)
	r.rw.WriteUnlock(t)
}

// readLock takes the given reader slot of the replica's lock: t holds its
// heap, among its other readers, until readUnlock.
func (r *replica) readLock(t *sim.Thread, slot int) {
	r.rw.ReadLock(t, slot)
	r.heap.Hold(t, false)
}

// readUnlock releases t's hold on the heap, which settles t, and then the
// reader slot.
func (r *replica) readUnlock(t *sim.Thread, slot int) {
	r.heap.Release(t)
	r.rw.ReadUnlock(t, slot)
}
