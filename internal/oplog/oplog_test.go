package oplog

import (
	"math/rand"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

func runLog(t *testing.T, kind nvm.Kind, size uint64, fn func(*sim.Thread, *nvm.System, *Log)) {
	t.Helper()
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("log", kind, nvm.Interleaved, WordsFor(size))
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		fn(th, sys, New(th, m, size))
	})
	sch.Run()
}

// isFull is the full-mark load a plain (non-polling) reader makes.
func (l *Log) isFull(t *sim.Thread, idx uint64) bool {
	return l.mem.Load(t, l.FullMarkOff(idx)) == l.FullMark(idx)
}

func TestFullMarkAlternatesPerPass(t *testing.T) {
	runLog(t, nvm.Volatile, 4, func(th *sim.Thread, _ *nvm.System, l *Log) {
		// pass 0 (idx 0..3): full = 1; pass 1 (idx 4..7): full = 0; pass 2: 1.
		for idx := uint64(0); idx < 4; idx++ {
			if got := l.FullMark(idx); got != 1 {
				t.Errorf("FullMark(%d) = %d, want 1", idx, got)
			}
		}
		for idx := uint64(4); idx < 8; idx++ {
			if got := l.FullMark(idx); got != 0 {
				t.Errorf("FullMark(%d) = %d, want 0", idx, got)
			}
		}
		if got := l.FullMark(8); got != 1 {
			t.Errorf("FullMark(8) = %d, want 1", got)
		}
	})
}

func TestFreshEntriesAreEmpty(t *testing.T) {
	runLog(t, nvm.Volatile, 8, func(th *sim.Thread, _ *nvm.System, l *Log) {
		for idx := uint64(0); idx < 8; idx++ {
			if l.isFull(th, idx) {
				t.Errorf("fresh entry %d reports full", idx)
			}
		}
	})
}

func TestWriteThenSetFullRoundTrip(t *testing.T) {
	runLog(t, nvm.Volatile, 8, func(th *sim.Thread, _ *nvm.System, l *Log) {
		l.WriteArgs(th, 3, 7, 100, 200)
		if l.isFull(th, 3) {
			t.Error("entry full before SetFull")
		}
		l.SetFull(th, 3)
		if !l.isFull(th, 3) {
			t.Error("entry not full after SetFull")
		}
		code, a0, a1 := l.ReadEntry(th, 3)
		if code != 7 || a0 != 100 || a1 != 200 {
			t.Errorf("ReadEntry = %d,%d,%d", code, a0, a1)
		}
	})
}

func TestReusedEntryNotFullForNextPass(t *testing.T) {
	runLog(t, nvm.Volatile, 4, func(th *sim.Thread, _ *nvm.System, l *Log) {
		l.WriteArgs(th, 1, 9, 0, 0)
		l.SetFull(th, 1)
		// Index 5 maps to the same slot but belongs to pass 1: the stale
		// pass-0 mark must read as empty for index 5.
		if l.isFull(th, 5) {
			t.Error("stale pass-0 entry reads full for pass-1 index")
		}
		l.WriteArgs(th, 5, 10, 0, 0)
		l.SetFull(th, 5)
		if !l.isFull(th, 5) {
			t.Error("pass-1 entry not full after SetFull")
		}
		// And a pass-2 reader of the same slot must see empty again.
		if l.isFull(th, 9) {
			t.Error("pass-1 mark reads full for pass-2 index")
		}
	})
}

func TestLogTailCASReservation(t *testing.T) {
	runLog(t, nvm.Volatile, 8, func(th *sim.Thread, _ *nvm.System, l *Log) {
		if l.LogTail(th) != 0 {
			t.Error("fresh logTail != 0")
		}
		if !l.CASLogTail(th, 0, 3) {
			t.Error("CAS from 0 failed")
		}
		if l.CASLogTail(th, 0, 5) {
			t.Error("stale CAS succeeded")
		}
		if l.LogTail(th) != 3 {
			t.Errorf("logTail = %d, want 3", l.LogTail(th))
		}
	})
}

func TestCompletedTailCASMonotonic(t *testing.T) {
	runLog(t, nvm.Volatile, 8, func(th *sim.Thread, _ *nvm.System, l *Log) {
		if !l.CASCompletedTail(th, 0, 4) {
			t.Error("CAS 0->4 failed")
		}
		if l.CASCompletedTail(th, 0, 6) {
			t.Error("stale CAS succeeded")
		}
		if got := l.CompletedTail(th); got != 4 {
			t.Errorf("completedTail = %d, want 4", got)
		}
	})
}

func TestPersistCompletedTail(t *testing.T) {
	runLog(t, nvm.NVM, 8, func(th *sim.Thread, sys *nvm.System, l *Log) {
		f := sys.NewFlusher()
		l.CASCompletedTail(th, 0, 5)
		if got := l.PersistedCompletedTail(); got != 0 {
			t.Errorf("persisted completedTail = %d before flush", got)
		}
		l.PersistCompletedTail(th, f)
		if got := l.PersistedCompletedTail(); got != 5 {
			t.Errorf("persisted completedTail = %d, want 5", got)
		}
	})
}

func TestPersistCompletedTailElision(t *testing.T) {
	// The §5.2 elision — a combiner that lost the persist race skips its
	// CLFLUSH — now comes from the substrate: after the winner's sync flush
	// the line is clean, so a second PersistCompletedTail is elided.
	runLog(t, nvm.NVM, 8, func(th *sim.Thread, sys *nvm.System, l *Log) {
		f := sys.NewFlusher()
		l.CASCompletedTail(th, 0, 5)
		base := sys.Metrics().Snapshot()
		l.PersistCompletedTail(th, f)
		d := sys.Metrics().Snapshot().Sub(base)
		if d.FlushSync != 1 || d.FlushesElided != 0 {
			t.Errorf("winner persist: FlushSync=%d FlushesElided=%d, want 1,0", d.FlushSync, d.FlushesElided)
		}
		// A slower combiner re-persisting the (clean) word is elided.
		base = sys.Metrics().Snapshot()
		l.PersistCompletedTail(th, f)
		d = sys.Metrics().Snapshot().Sub(base)
		if d.FlushSync != 0 || d.FlushesElided != 1 {
			t.Errorf("loser persist: FlushSync=%d FlushesElided=%d, want 0,1", d.FlushSync, d.FlushesElided)
		}
		if got := l.PersistedCompletedTail(); got != 5 {
			t.Errorf("persisted completedTail = %d, want 5", got)
		}
	})
}

func TestPersistCompletedTailNoElisionMode(t *testing.T) {
	// With elision disabled every persist pays a full sync flush; the
	// persisted view is the same either way.
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	sys.SetFlushElision(false)
	m := sys.NewMemory("log", nvm.NVM, nvm.Interleaved, WordsFor(8))
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		l := New(th, m, 8)
		f := sys.NewFlusher()
		l.CASCompletedTail(th, 0, 5)
		l.PersistCompletedTail(th, f)
		l.PersistCompletedTail(th, f)
		d := sys.Metrics().Snapshot()
		if d.FlushSync != 2 || d.FlushesElided != 0 || d.FlushElisionChecks != 0 {
			t.Errorf("no-elision persists: FlushSync=%d FlushesElided=%d checks=%d, want 2,0,0",
				d.FlushSync, d.FlushesElided, d.FlushElisionChecks)
		}
		if got := l.PersistedCompletedTail(); got != 5 {
			t.Errorf("persisted completedTail = %d, want 5", got)
		}
	})
	sch.Run()
}

func TestLogMin(t *testing.T) {
	runLog(t, nvm.Volatile, 16, func(th *sim.Thread, _ *nvm.System, l *Log) {
		if got := l.LogMin(th); got != 15 {
			t.Errorf("fresh logMin = %d, want size-1", got)
		}
		l.AdvanceLogMin(th, 20)
		if got := l.LogMin(th); got != 20 {
			t.Errorf("logMin = %d, want 20", got)
		}
	})
}

func TestEntryOffWraps(t *testing.T) {
	runLog(t, nvm.Volatile, 4, func(th *sim.Thread, _ *nvm.System, l *Log) {
		if l.EntryOff(1) != l.EntryOff(5) || l.EntryOff(1) != l.EntryOff(9) {
			t.Error("wrapped indexes do not share a slot")
		}
		if l.EntryOff(1) == l.EntryOff(2) {
			t.Error("distinct indexes share a slot")
		}
	})
}

func TestDurableLogSurvivesCrash(t *testing.T) {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("log", nvm.NVM, nvm.Interleaved, WordsFor(8))
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		l := New(th, m, 8)
		f := sys.NewFlusher()
		// Durable append protocol: args, flush, fence, emptyBit, flush, fence.
		l.WriteArgs(th, 0, 42, 7, 8)
		f.FlushLine(th, m, l.EntryOff(0))
		f.Fence(th)
		l.SetFull(th, 0)
		f.FlushLine(th, m, l.EntryOff(0))
		f.Fence(th)
		l.CASCompletedTail(th, 0, 1)
		l.PersistCompletedTail(th, f)
		// Entry 1: args written and fenced but emptyBit never set — must be
		// recoverable as empty.
		l.WriteArgs(th, 1, 43, 9, 10)
		f.FlushLine(th, m, l.EntryOff(1))
		f.Fence(th)
	})
	sch.Run()
	rec := sys.Recover(sim.New(2))
	l := Attach(rec.Memory("log"), 8)
	if got := l.PersistedCompletedTail(); got != 1 {
		t.Errorf("recovered completedTail = %d, want 1", got)
	}
	if !l.PersistedIsFull(0) {
		t.Error("entry 0 not recovered as full")
	}
	code, a0, a1 := l.PersistedReadEntry(0)
	if code != 42 || a0 != 7 || a1 != 8 {
		t.Errorf("recovered entry 0 = %d,%d,%d", code, a0, a1)
	}
	if l.PersistedIsFull(1) {
		t.Error("half-written entry 1 recovered as full")
	}
}

func TestConcurrentReservations(t *testing.T) {
	// Combiners racing on CASLogTail must produce disjoint contiguous ranges.
	sch := sim.New(3)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
	m := sys.NewMemory("log", nvm.Volatile, nvm.Interleaved, WordsFor(4096))
	var l *Log
	ranges := make(map[uint64]int) // entry -> owner
	sch.Spawn("init", 0, 0, func(th *sim.Thread) {
		l = New(th, m, 4096)
	})
	sch.Run()

	sch2 := sim.New(4)
	for w := 0; w < 6; w++ {
		w := w
		sch2.Spawn("c", w%2, 0, func(th *sim.Thread) {
			rng := rand.New(rand.NewSource(int64(th.ID())))
			for i := 0; i < 50; i++ {
				n := uint64(rng.Intn(4) + 1)
				for {
					tail := l.LogTail(th)
					if l.CASLogTail(th, tail, tail+n) {
						for k := uint64(0); k < n; k++ {
							if owner, dup := ranges[tail+k]; dup {
								t.Errorf("entry %d reserved by %d and %d", tail+k, owner, w)
							}
							ranges[tail+k] = w
						}
						break
					}
					th.Step(1)
				}
			}
		})
	}
	sch2.Run()
	// The reserved prefix must be contiguous from 0.
	total := uint64(len(ranges))
	for i := uint64(0); i < total; i++ {
		if _, ok := ranges[i]; !ok {
			t.Fatalf("gap in reservations at %d", i)
		}
	}
}
