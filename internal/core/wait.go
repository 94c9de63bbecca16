package core

import (
	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/oplog"
	"prepuc/internal/sim"
)

// This file is the engine's one wait idiom. Every wait whose loop only loads
// — a worker waiting for its batch slot to be served or its replica to catch
// up, a would-be combiner waiting for the combiner lock, an applier waiting
// for a log entry's full mark, a client waiting for completedTail — is a
// waiter run by sim.Thread.Await: the same loads, lock probes and backoff
// rungs as the Load / TryAcquire / Backoff.Spin loop it replaces, in the same
// order, cut into poll segments at their Steps. Loops that store, CAS or
// count their spins (logmin.go's boundary and straggler helpers, the
// Buffered branch of AwaitDurable, the reader–writer lock) keep Backoff.Spin.
//
// A waiter is also a sim.Parker: between two rounds, when the watched word
// still misses, the lock is still held and every line the round loads is
// shared or the waiter's own, each later round can only fail the same way
// until some thread stores to one of those lines. The waiter then watches
// them (nvm.Memory.Watch) and leaves the dispatch heap; the store wakes it,
// and its skipped rounds are replayed (DESIGN.md §7, "Parked pollers").

// What a waiter watches.
const (
	watchNone = iota // nothing: the wait is the lock probe alone
	watchWord        // mem[off] reaches want
	watchFull        // log entry want is full
	watchTail        // completedTail reaches want
)

// Poll segments. One round is segLoad (announce the watched load, or the
// probe of a lock-only wait), segRead (read it; on a miss announce the lock
// probe, if any), segLock (read the probe) and the backoff Step.
const (
	segLoad = iota
	segRead
	segLock
	segSpin // the backoff alone: the round after a lost CAS
)

// A waiter is one thread's wait loop. A wait arms it by assigning a fresh
// value, which also restarts the backoff ladder.
type waiter struct {
	watch int
	mem   *nvm.Memory // watchWord's word is mem[off]
	off   uint64
	log   *oplog.Log // the log of watchFull and watchTail
	want  uint64
	lock  *locks.TryLock // probed after every missed load; nil: none
	cap   uint64         // backoff cap
	b     sim.Backoff
	seg   int
	// served reports, once Await returns, that the watched word ended the
	// wait; otherwise the lock looked free and the caller tries Take — and on
	// a lost CAS sets seg to segSpin and awaits again.
	served bool
}

// Poll runs the waiter's next segment (sim.Poller).
func (w *waiter) Poll(t *sim.Thread) (uint64, bool) {
	switch w.seg {
	case segLoad:
		if w.watch == watchNone {
			w.seg = segLock
			return w.lock.ProbeBegin(t), false
		}
		w.seg = segRead
		mem, off := w.word()
		return mem.LoadBegin(t, off), false
	case segRead:
		mem, off := w.word()
		if w.served = w.hit(mem.LoadEnd(off)); w.served {
			return 0, true
		}
		if w.lock != nil {
			w.seg = segLock
			return w.lock.ProbeBegin(t), false
		}
	case segLock:
		if w.lock.ProbeEnd() {
			return 0, true
		}
	}
	w.seg = segLoad
	return w.b.Next(w.cap), false
}

// Park reports whether the wait is steady (sim.Parker): t is between two
// rounds, the watched word still misses, the lock is still held, and each
// line the round loads costs t the base price. Then t watches those lines.
func (w *waiter) Park(t *sim.Thread) bool {
	if w.seg != segLoad {
		return false
	}
	steady := true
	if w.watch != watchNone {
		mem, off := w.word()
		v, ok := mem.Watch(t, off)
		steady = ok && !w.hit(v)
	}
	if steady && w.lock != nil {
		steady = w.lock.Watch(t)
	}
	if !steady {
		w.Unpark(t)
	}
	return steady
}

// Unpark ends the watches Park set (sim.Parker).
func (w *waiter) Unpark(t *sim.Thread) {
	if w.watch != watchNone {
		mem, _ := w.word()
		mem.Unwatch(t)
	}
	if w.lock != nil {
		w.lock.Unwatch(t)
	}
}

// word is the word the round loads, unless the wait is the lock alone.
func (w *waiter) word() (*nvm.Memory, uint64) {
	switch w.watch {
	case watchFull:
		return w.log.Mem(), w.log.FullMarkOff(w.want)
	case watchTail:
		return w.log.Mem(), w.log.CompletedTailOff()
	}
	return w.mem, w.off
}

// hit reports whether the loaded word v ends the wait.
func (w *waiter) hit(v uint64) bool {
	if w.watch == watchFull {
		return v == w.log.FullMark(w.want)
	}
	return v >= w.want
}

// waiter returns t's waiter on this engine. A thread waits on one thing at a
// time, so one waiter serves every wait it makes; it is allocated at the
// thread's first wait and reused, so a warm wait allocates nothing.
func (p *PREP) waiter(t *sim.Thread) *waiter {
	id := t.ID()
	for id >= len(p.waits) {
		p.waits = append(p.waits, nil)
	}
	if p.waits[id] == nil {
		p.waits[id] = new(waiter)
	}
	return p.waits[id]
}
