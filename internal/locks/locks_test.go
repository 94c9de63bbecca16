package locks

import (
	"fmt"
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

// seededChooser picks a uniformly drawn candidate at every decision point: a
// schedule that owes nothing to the virtual clocks.
type seededChooser struct{ x uint64 }

func (c *seededChooser) Choose(_ int, cands []sim.Candidate) int {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return int(c.x % uint64(len(cands)))
}

// The distributed reader–writer lock excludes: with four readers on their
// own slots and two writers, no writer's section overlaps another section —
// in the order the sections run, under seeded Chooser schedules and under
// run-ahead, and in virtual time under run-ahead — readers do share it, and
// every reader slot and the writer word drain to zero.
func TestDistRWLockExcludes(t *testing.T) {
	const readers, writers, rounds = 4, 2, 40
	for seed := uint64(0); seed <= 8; seed++ {
		name := "run-ahead"
		if seed != 0 {
			name = fmt.Sprintf("chooser seed %d", seed)
		}
		t.Run(name, func(t *testing.T) {
			sch := sim.New(0)
			if seed != 0 {
				sch.SetChooser(&seededChooser{x: seed * 0x9E3779B97F4A7C15})
			}
			sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.DefaultCosts()})
			m := sys.NewMemory("m", nvm.Volatile, 0, DistRWLockWords(readers))
			l := NewDistRWLock(m, 0, readers)
			type section struct {
				write      bool
				start, end uint64
			}
			var sections []section
			inW, inR, maxR := 0, 0, 0
			for w := 0; w < writers; w++ {
				sch.Spawn("writer", w, 0, func(th *sim.Thread) {
					for i := 0; i < rounds; i++ {
						l.WriteLock(th)
						if inW++; inW != 1 || inR != 0 {
							t.Errorf("writer entered beside %d writers and %d readers", inW-1, inR)
						}
						start := th.Clock()
						th.Step(uint64(50 + 30*w))
						sections = append(sections, section{true, start, th.Clock()})
						inW--
						l.WriteUnlock(th)
						th.Step(uint64(200 + 70*w))
					}
				})
			}
			for r := 0; r < readers; r++ {
				sch.Spawn("reader", r%2, 0, func(th *sim.Thread) {
					for i := 0; i < rounds; i++ {
						l.ReadLock(th, r)
						if inR++; inW != 0 {
							t.Errorf("reader entered beside a writer")
						}
						maxR = max(maxR, inR)
						start := th.Clock()
						th.Step(uint64(80 + 20*r))
						sections = append(sections, section{false, start, th.Clock()})
						inR--
						l.ReadUnlock(th, r)
						th.Step(uint64(30 + 10*r))
					}
				})
			}
			sch.Run()
			if want := (readers + writers) * rounds; len(sections) != want {
				t.Fatalf("%d sections ran, want %d", len(sections), want)
			}
			if maxR < 2 {
				t.Errorf("at most %d readers shared the lock, want at least 2", maxR)
			}
			if seed == 0 {
				for i, a := range sections {
					for _, b := range sections[i+1:] {
						if (a.write || b.write) && a.start < b.end && b.start < a.end {
							t.Errorf("sections overlap in virtual time: %+v and %+v", a, b)
						}
					}
				}
			}
			drain := sim.New(0)
			sys.SetScheduler(drain)
			drain.Spawn("drain", 0, 0, func(th *sim.Thread) {
				for off := uint64(0); off < m.Words(); off++ {
					if v := m.Load(th, off); v != 0 {
						t.Errorf("word %d of the lock reads %d after every holder left", off, v)
					}
				}
			})
			drain.Run()
		})
	}
}
