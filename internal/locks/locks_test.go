package locks

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

func newMem(sch *sim.Scheduler) *nvm.Memory {
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
	return sys.NewMemory("m", nvm.Volatile, 0, 64)
}

func TestTryLockMutualExclusion(t *testing.T) {
	sch := sim.New(1)
	m := newMem(sch)
	l := NewTryLock(m, 0)
	inCS := 0
	maxInCS := 0
	const n, per = 8, 100
	acquired := 0
	for w := 0; w < n; w++ {
		sch.Spawn("w", w%2, 0, func(th *sim.Thread) {
			for i := 0; i < per; i++ {
				if l.TryAcquire(th) {
					inCS++
					if inCS > maxInCS {
						maxInCS = inCS
					}
					acquired++
					th.Step(5) // critical section work
					inCS--
					l.Release(th)
				} else {
					th.Step(3)
				}
			}
		})
	}
	sch.Run()
	if maxInCS != 1 {
		t.Errorf("max threads in critical section = %d, want 1", maxInCS)
	}
	if acquired == 0 {
		t.Error("no thread ever acquired the trylock")
	}
}

func TestTryLockFailsWhenHeld(t *testing.T) {
	sch := sim.New(1)
	m := newMem(sch)
	l := NewTryLock(m, 0)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		if !l.TryAcquire(th) {
			t.Error("initial acquire failed")
		}
		if l.TryAcquire(th) {
			t.Error("second acquire of held trylock succeeded")
		}
		l.Release(th)
		if !l.TryAcquire(th) {
			t.Error("acquire after release failed")
		}
	})
	sch.Run()
}

func TestRWLockWriterExcludesAll(t *testing.T) {
	sch := sim.New(2)
	m := newMem(sch)
	l := NewRWLock(m, 8)
	writers, readers := 0, 0
	bad := false
	for w := 0; w < 3; w++ {
		sch.Spawn("writer", 0, 0, func(th *sim.Thread) {
			for i := 0; i < 50; i++ {
				l.WriteLock(th)
				writers++
				if writers != 1 || readers != 0 {
					bad = true
				}
				th.Step(7)
				writers--
				l.WriteUnlock(th)
				th.Step(3)
			}
		})
	}
	for r := 0; r < 5; r++ {
		sch.Spawn("reader", 1, 0, func(th *sim.Thread) {
			for i := 0; i < 50; i++ {
				for !l.TryReadLock(th) {
					th.Step(pause)
				}
				readers++
				if writers != 0 {
					bad = true
				}
				th.Step(4)
				readers--
				l.ReadUnlock(th)
				th.Step(2)
			}
		})
	}
	sch.Run()
	if bad {
		t.Error("reader/writer exclusion violated")
	}
}

func TestTryWriteLock(t *testing.T) {
	sch := sim.New(4)
	m := newMem(sch)
	l := NewRWLock(m, 8)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		if !l.TryWriteLock(th) {
			t.Error("TryWriteLock on free lock failed")
		}
		if l.TryWriteLock(th) {
			t.Error("TryWriteLock on held lock succeeded")
		}
		if l.TryReadLock(th) {
			t.Error("TryReadLock while write-held succeeded")
		}
		l.WriteUnlock(th)
		if !l.TryReadLock(th) {
			t.Error("TryReadLock on free lock failed")
		}
		if l.TryWriteLock(th) {
			t.Error("TryWriteLock while read-held succeeded")
		}
		if !l.TryReadLock(th) {
			t.Error("second TryReadLock failed")
		}
		l.ReadUnlock(th)
		l.ReadUnlock(th)
		if !l.TryWriteLock(th) {
			t.Error("TryWriteLock after all readers left failed")
		}
	})
	sch.Run()
}

func TestWriteLockWaitsForReaders(t *testing.T) {
	sch := sim.New(5)
	m := newMem(sch)
	l := NewRWLock(m, 8)
	readerDone := false
	var writerEntered bool
	sch.Spawn("reader", 0, 0, func(th *sim.Thread) {
		if !l.TryReadLock(th) {
			t.Error("TryReadLock on a free lock failed")
		}
		for i := 0; i < 100; i++ {
			th.Step(10)
		}
		readerDone = true
		l.ReadUnlock(th)
	})
	sch.Spawn("writer", 0, 0, func(th *sim.Thread) {
		th.Step(5) // let the reader in first
		l.WriteLock(th)
		writerEntered = true
		if !readerDone {
			t.Error("writer entered while reader held the lock")
		}
		l.WriteUnlock(th)
	})
	sch.Run()
	if !writerEntered {
		t.Error("writer never entered")
	}
}
