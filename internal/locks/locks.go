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
// (metrics.LockAcquisitions); locks constructed once and shared (the
// combiner TryLock, the RW locks) additionally record hand-offs — a
// successful acquisition by a different thread than the previous holder,
// the event that makes a lock line migrate between caches. The hand-off
// state is host-side and costs no virtual time.
package locks

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// holder tracks the last thread to successfully acquire a lock, for
// hand-off accounting. It is shared by every by-value copy of the lock.
type holder struct{ last int32 }

const noHolder = int32(-1)

// recordAcquire counts one successful exclusive acquisition, and a hand-off
// when the acquirer differs from the previous holder.
func (h *holder) recordAcquire(t *sim.Thread, m *nvm.Memory) {
	met := m.Metrics()
	met.LockAcquisitions++
	if h == nil {
		return
	}
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
// test-and-test-and-set — a probe load, so a held lock is not hammered with
// CASes, then the CAS — composed of the halves a poller (sim.Thread.Await)
// runs in separate segments: ProbeBegin, its Step, ProbeEnd, then Take.
func (l TryLock) TryAcquire(t *sim.Thread) bool {
	t.Step(l.ProbeBegin(t))
	return l.ProbeEnd() && l.Take(t)
}

// ProbeBegin is the probe load's pre-Step half (nvm.Memory.LoadBegin).
func (l TryLock) ProbeBegin(t *sim.Thread) uint64 { return l.m.LoadBegin(t, l.off) }

// ProbeEnd is the probe load's post-Step half: whether the lock looked free.
func (l TryLock) ProbeEnd() bool { return l.m.LoadEnd(l.off) == 0 }

// Watch is the probe's parking check (nvm.Memory.Watch): it reports whether
// every probe from here on fails alike until a store to the lock word — the
// lock is held and the probe costs t the base price — and if so t watches
// the word.
func (l TryLock) Watch(t *sim.Thread) bool {
	v, ok := l.m.Watch(t, l.off)
	return ok && v != 0
}

// Unwatch ends t's watches on the lock's memory (nvm.Memory.Unwatch).
func (l TryLock) Unwatch(t *sim.Thread) { l.m.Unwatch(t) }

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

// ReadLock blocks (spins in virtual time) until no writer holds the lock.
func (l RWLock) ReadLock(t *sim.Thread) {
	for {
		w := l.m.Load(t, l.off)
		if w&writerBit == 0 && l.m.CAS(t, l.off, w, w+1) {
			l.m.Metrics().LockAcquisitions++
			return
		}
		t.Step(spinCost(t))
	}
}

// ReadUnlock releases one reader.
func (l RWLock) ReadUnlock(t *sim.Thread) {
	for {
		w := l.m.Load(t, l.off)
		if l.m.CAS(t, l.off, w, w-1) {
			return
		}
		t.Step(spinCost(t))
	}
}

// WriteLock blocks until the lock is completely free, then takes it
// exclusively.
func (l RWLock) WriteLock(t *sim.Thread) {
	for {
		if l.m.Load(t, l.off) == 0 && l.m.CAS(t, l.off, 0, writerBit) {
			l.h.recordAcquire(t, l.m)
			return
		}
		t.Step(spinCost(t))
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

// spinCost is the virtual-time price of one failed acquisition loop
// iteration (a PAUSE instruction plus scheduling slack).
func spinCost(t *sim.Thread) uint64 {
	// The costs table lives on the nvm system; locks only see memories, so
	// the spin price rides on the thread via a fixed small constant. Memory
	// accesses in the loop already dominate the charged time.
	return 8
}

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
		for l.m.Load(t, l.writerOff()) != 0 {
			t.Step(spinCost(t))
		}
	}
}

// ReadUnlock releases the reader slot.
func (l DistRWLock) ReadUnlock(t *sim.Thread, slot int) {
	l.m.Store(t, l.slotOff(slot), 0)
}

// WriteLock acquires the lock exclusively: raise the writer word, then wait
// for every reader flag to drain.
func (l DistRWLock) WriteLock(t *sim.Thread) {
	for !l.m.CAS(t, l.writerOff(), 0, 1) {
		t.Step(spinCost(t))
	}
	for s := 0; s < l.slots; s++ {
		for l.m.Load(t, l.slotOff(s)) != 0 {
			t.Step(spinCost(t))
		}
	}
	l.h.recordAcquire(t, l.m)
}

// WriteUnlock releases the exclusive lock.
func (l DistRWLock) WriteUnlock(t *sim.Thread) {
	l.m.Store(t, l.writerOff(), 0)
}
