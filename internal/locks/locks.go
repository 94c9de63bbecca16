// Package locks provides the spin locks used by the universal
// constructions: the combiner trylock and reader–writer lock of node
// replication, and the strong try reader–writer lock of CX-PUC.
//
// Lock state lives in simulated memory words so that acquisitions are
// charged NUMA-aware access costs, contention is visible to the virtual-time
// scheduler, and state evaporates at a crash exactly like real lock words in
// volatile cache/DRAM.
//
// Every successful acquisition is recorded in the system's metrics registry
// (metrics.LockAcquisitions); an exclusive one additionally records a
// hand-off when it is by a different thread than the previous holder, the
// event that makes a lock line migrate between caches. The hand-off state is
// host-side and costs no virtual time.
//
// Every blocking acquisition, like every other wait of the constructions
// whose rounds only load, is one Wait (wait.go).
package locks

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// holder is the state every by-value copy of a lock shares: the last thread
// to successfully acquire it, for hand-off accounting, and the Waits its
// blocking acquisitions wait in.
type holder struct {
	last  int32
	waits Waits
}

const noHolder = int32(-1)

// recordAcquire counts one successful exclusive acquisition, and a hand-off
// when the acquirer differs from the previous holder.
func (h *holder) recordAcquire(t *sim.Thread, m *nvm.Memory) {
	met := m.Metrics()
	met.LockAcquisitions++
	if h.last != noHolder && h.last != int32(t.ID()) {
		met.LockHandoffs++
	}
	h.last = int32(t.ID())
}

// TryLock is a test-and-set lock with no blocking acquire; node replication
// uses one per replica as the combiner lock.
type TryLock struct {
	m   *nvm.Memory
	off uint64
	h   *holder
}

// NewTryLock wraps the word at off in m (the word must be zero-initialized).
func NewTryLock(m *nvm.Memory, off uint64) TryLock {
	return TryLock{m, off, &holder{last: noHolder}}
}

// TryAcquire attempts to take the lock; it never blocks. It is
// test-and-test-and-set: a probe load, so a held lock is not hammered with
// CASes, then the CAS (Take).
func (l TryLock) TryAcquire(t *sim.Thread) bool {
	return l.m.Load(t, l.off) == 0 && l.Take(t)
}

// Acquire blocks until it takes the lock: w waits until the lock looks free,
// then Take; a lost CAS takes one backoff round (cap) before the next probe.
func (l *TryLock) Acquire(t *sim.Thread, w *Wait, cap uint64) {
	*w = Wait{Lock: l, Cap: cap}
	for {
		t.Await(w)
		if l.Take(t) {
			return
		}
		w.Retry()
	}
}

// Take is the CAS half: it takes the lock if it is still free.
func (l TryLock) Take(t *sim.Thread) bool {
	if !l.m.CAS(t, l.off, 0, 1) {
		return false
	}
	l.h.recordAcquire(t, l.m)
	return true
}

// Release unlocks. Only the holder may call it.
func (l TryLock) Release(t *sim.Thread) { l.m.Store(t, l.off, 0) }

// RWLock is a word-based reader–writer spin lock. The word holds the reader
// count; the writer bit is the top bit.
type RWLock struct {
	m   *nvm.Memory
	off uint64
	h   *holder
}

const writerBit = uint64(1) << 63

// NewRWLock wraps the word at off in m (the word must be zero-initialized).
func NewRWLock(m *nvm.Memory, off uint64) RWLock {
	return RWLock{m, off, &holder{last: noHolder}}
}

// ReadUnlock releases one reader.
func (l RWLock) ReadUnlock(t *sim.Thread) {
	for {
		w := l.m.Load(t, l.off)
		if l.m.CAS(t, l.off, w, w-1) {
			return
		}
		t.Step(pause)
	}
}

// WriteLock blocks until the lock is completely free, then takes it
// exclusively: it waits for the word to read zero, then CASes; a lost CAS
// takes one pause before the next load.
func (l RWLock) WriteLock(t *sim.Thread) {
	w := l.h.waits.Of(t)
	*w = Wait{Mem: l.m, Off: l.off, Exact: true, Cap: pause}
	for {
		t.Await(w)
		if l.m.CAS(t, l.off, 0, writerBit) {
			l.h.recordAcquire(t, l.m)
			return
		}
		w.Retry()
	}
}

// WriteUnlock releases the exclusive lock.
func (l RWLock) WriteUnlock(t *sim.Thread) { l.m.Store(t, l.off, 0) }

// TryWriteLock attempts exclusive acquisition without blocking. CX-PUC's
// strong try reader–writer lock exposes this.
func (l RWLock) TryWriteLock(t *sim.Thread) bool {
	if l.m.Load(t, l.off) == 0 && l.m.CAS(t, l.off, 0, writerBit) {
		l.h.recordAcquire(t, l.m)
		return true
	}
	return false
}

// TryReadLock attempts shared acquisition without blocking.
func (l RWLock) TryReadLock(t *sim.Thread) bool {
	w := l.m.Load(t, l.off)
	if w&writerBit == 0 && l.m.CAS(t, l.off, w, w+1) {
		l.m.Metrics().LockAcquisitions++
		return true
	}
	return false
}

// pause is the virtual-time price of one failed round of a reader–writer
// lock's loop (a PAUSE instruction plus scheduling slack): the Step of its
// retries and the cap of its waits, whose backoff ladder it flattens. The
// loop's memory accesses dominate the charged time.
const pause = 8

// DistRWLock is the distributed reader–writer lock of node replication:
// each reader thread owns a whole cache line for its reader flag, so
// read-lock acquisition touches only thread-private state plus a shared
// load of the writer word — no line ping-pong between readers, which is
// what lets NR's read-only operations scale. Writers raise the writer word
// and wait for every reader flag to drain.
//
// Layout starting at off: writer word (one line), then one line per reader
// slot.
type DistRWLock struct {
	m     *nvm.Memory
	off   uint64
	slots int
	h     *holder
}

// DistRWLockWords returns the region size needed for a lock with the given
// number of reader slots.
func DistRWLockWords(slots int) uint64 {
	return uint64(1+slots) * nvm.WordsPerLine
}

// NewDistRWLock wraps the region at off in m (must be zero-initialized and
// DistRWLockWords(slots) long).
func NewDistRWLock(m *nvm.Memory, off uint64, slots int) DistRWLock {
	return DistRWLock{m: m, off: off, slots: slots, h: &holder{last: noHolder}}
}

func (l DistRWLock) writerOff() uint64 { return l.off }
func (l DistRWLock) slotOff(slot int) uint64 {
	return l.off + uint64(1+slot)*nvm.WordsPerLine
}

// ReadLock acquires the lock in shared mode for the given reader slot.
func (l DistRWLock) ReadLock(t *sim.Thread, slot int) {
	for {
		l.m.Store(t, l.slotOff(slot), 1)
		if l.m.Load(t, l.writerOff()) == 0 {
			l.m.Metrics().LockAcquisitions++
			return
		}
		// A writer is active or arriving: stand down and wait.
		l.m.Store(t, l.slotOff(slot), 0)
		l.await(t, l.writerOff())
	}
}

// await waits for the word at off to read zero.
func (l DistRWLock) await(t *sim.Thread, off uint64) {
	w := l.h.waits.Of(t)
	*w = Wait{Mem: l.m, Off: off, Exact: true, Cap: pause}
	t.Await(w)
}

// ReadUnlock releases the reader slot.
func (l DistRWLock) ReadUnlock(t *sim.Thread, slot int) {
	l.m.Store(t, l.slotOff(slot), 0)
}

// WriteLock acquires the lock exclusively: raise the writer word, then wait
// for every reader flag to drain.
func (l DistRWLock) WriteLock(t *sim.Thread) {
	for !l.m.CAS(t, l.writerOff(), 0, 1) {
		t.Step(pause)
	}
	for s := 0; s < l.slots; s++ {
		l.await(t, l.slotOff(s))
	}
	l.h.recordAcquire(t, l.m)
}

// WriteUnlock releases the exclusive lock.
func (l DistRWLock) WriteUnlock(t *sim.Thread) {
	l.m.Store(t, l.writerOff(), 0)
}
