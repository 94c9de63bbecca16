package nvm

import (
	"testing"

	"prepuc/internal/fault"
	"prepuc/internal/sim"
)

// pendingLines builds a system with n stored-and-flushed-but-unfenced lines.
func pendingLines(n uint64, p fault.Policy) *System {
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Seed: 7})
	sys.SetFaultPolicy(p)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, n*WordsPerLine)
		f := sys.NewFlusher()
		for l := uint64(0); l < n; l++ {
			m.Store(th, l*WordsPerLine, l+1)
			f.FlushLine(th, m, l*WordsPerLine)
		}
		// no fence: every line's fate is the policy's decision
	})
	sch.Run()
	return sys
}

func countPersisted(rec *System, n uint64) uint64 {
	m := rec.Memory("m")
	var persisted uint64
	for l := uint64(0); l < n; l++ {
		if m.PersistedLoad(l*WordsPerLine) == l+1 {
			persisted++
		}
	}
	return persisted
}

func TestDropAllPolicy(t *testing.T) {
	const n = 50
	sys := pendingLines(n, fault.DropAll())
	rec := sys.Recover(sim.New(2))
	if got := countPersisted(rec, n); got != 0 {
		t.Errorf("DropAll persisted %d of %d lines, want 0", got, n)
	}
	snap := rec.Metrics().Snapshot()
	if snap.CrashLinesDropped != n || snap.CrashLinesPersisted != 0 {
		t.Errorf("counters: dropped=%d persisted=%d, want %d/0",
			snap.CrashLinesDropped, snap.CrashLinesPersisted, n)
	}
}

func TestPersistAllPolicy(t *testing.T) {
	const n = 50
	sys := pendingLines(n, fault.PersistAll())
	rec := sys.Recover(sim.New(2))
	if got := countPersisted(rec, n); got != n {
		t.Errorf("PersistAll persisted %d of %d lines, want all", got, n)
	}
	snap := rec.Metrics().Snapshot()
	if snap.CrashLinesPersisted != n || snap.CrashLinesDropped != 0 {
		t.Errorf("counters: dropped=%d persisted=%d, want 0/%d",
			snap.CrashLinesDropped, snap.CrashLinesPersisted, n)
	}
}

func TestTargetedDropsExactlyOneAndSweeps(t *testing.T) {
	// Crash k of a Targeted lineage drops pending index k mod n. Two
	// independent systems with the same policy object model two consecutive
	// crashes of one torture cycle.
	const n = 10
	pol := fault.Targeted(0)
	sysA := pendingLines(n, pol)
	recA := sysA.Recover(sim.New(2))
	if got := countPersisted(recA, n); got != n-1 {
		t.Fatalf("first Targeted crash persisted %d of %d lines, want %d", got, n, n-1)
	}
	if recA.Memory("m").PersistedLoad(0) != 0 {
		t.Error("first Targeted crash should drop pending index 0")
	}
	sysB := pendingLines(n, pol)
	recB := sysB.Recover(sim.New(2))
	if recB.Memory("m").PersistedLoad(0) == 0 {
		t.Error("second Targeted crash dropped index 0 again; sweep did not advance")
	}
	if recB.Memory("m").PersistedLoad(WordsPerLine) != 0 {
		t.Error("second Targeted crash should drop pending index 1")
	}
}

func TestPolicyCarriedIntoRecoveredSystem(t *testing.T) {
	sys := pendingLines(4, fault.DropAll())
	rec := sys.Recover(sim.New(2))
	if rec.policy != fault.DropAll() {
		t.Error("fault policy not carried across Recover")
	}
}

func TestDefaultCoinCountsOutcomes(t *testing.T) {
	sys := pendingLines(100, nil)
	rec := sys.Recover(sim.New(2))
	snap := rec.Metrics().Snapshot()
	if snap.CrashLinesPersisted+snap.CrashLinesDropped != 100 {
		t.Errorf("coin-flip counters sum to %d, want 100",
			snap.CrashLinesPersisted+snap.CrashLinesDropped)
	}
	if snap.CrashLinesPersisted == 0 || snap.CrashLinesDropped == 0 {
		t.Errorf("fair coin produced a degenerate split: persisted=%d dropped=%d",
			snap.CrashLinesPersisted, snap.CrashLinesDropped)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	// A clone must replicate current and persisted views plus pending
	// flushes, and diverge independently afterwards.
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Seed: 3})
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, 4*WordsPerLine)
		f := sys.NewFlusher()
		m.Store(th, 0, 11)
		f.FlushLineSync(th, m, 0) // persisted in both views
		m.Store(th, WordsPerLine, 22)
		f.FlushLine(th, m, WordsPerLine) // pending, unfenced
	})
	sch.Run()

	clone := sys.Clone(sim.New(2))
	cm := clone.Memory("m")
	if cm.PersistedLoad(0) != 11 {
		t.Error("clone lost the persisted view")
	}
	// Mutate the clone; the original must not see it.
	csch := clone.Scheduler()
	csch.Spawn("t", 0, 0, func(th *sim.Thread) {
		cm.Store(th, 0, 99)
	})
	csch.Run()
	if got := sys.Memory("m").PersistedLoad(0); got != 11 {
		t.Errorf("mutating the clone changed the original (persisted=%d)", got)
	}
	// The pending unfenced line must have been carried: with PersistAll it
	// materializes at the clone's crash.
	clone.SetFaultPolicy(fault.PersistAll())
	rec := clone.Recover(sim.New(4))
	if got := rec.Memory("m").PersistedLoad(WordsPerLine); got != 22 {
		t.Errorf("pending flush not carried into clone (persisted=%d, want 22)", got)
	}
}
