package soft

import (
	"math/rand"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// size counts the keys of the volatile index.
func (s *Soft) size(t *sim.Thread) uint64 {
	var n uint64
	for b := uint64(0); b < s.cfg.Buckets; b++ {
		for v := s.vmem.Load(t, s.bucketsOff+b); v != 0; v = s.vmem.Load(t, v+vnNext) {
			n++
		}
	}
	return n
}

type world struct {
	sys *nvm.System
	s   *Soft
}

func build(t *testing.T, cfg Config, nvmCfg nvm.Config, seed int64) *world {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvmCfg)
	w := &world{sys: sys}
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		w.s = New(th, sys, cfg)
	})
	sch.Run()
	return w
}

func (w *world) run(workers int, crashAt uint64, seed int64, fn func(*sim.Thread, int)) *sim.Scheduler {
	sch := sim.New(seed)
	if crashAt != 0 {
		sch.CrashAtEvent(crashAt)
	}
	w.sys.SetScheduler(sch)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		sch.Spawn("w", tid%2, 0, func(th *sim.Thread) {
			fn(th, tid)
		})
	}
	sch.Run()
	return sch
}

func TestBasicOps(t *testing.T) {
	w := build(t, Config{Buckets: 64}, nvm.Config{}, 1)
	w.run(1, 0, 100, func(th *sim.Thread, tid int) {
		if got := w.s.Execute(th, tid, uc.Insert(1, 10)); got != 1 {
			t.Errorf("insert = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Get(1)); got != 10 {
			t.Errorf("get = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Insert(1, 20)); got != 0 {
			t.Errorf("update = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Get(1)); got != 20 {
			t.Errorf("get after update = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Delete(1)); got != 1 {
			t.Errorf("delete = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Get(1)); got != uc.NotFound {
			t.Errorf("get deleted = %d", got)
		}
		if got := w.s.Execute(th, tid, uc.Delete(1)); got != 0 {
			t.Errorf("delete absent = %d", got)
		}
	})
}

func TestReadsDoNotFlushOrFence(t *testing.T) {
	w := build(t, Config{Buckets: 64}, nvm.Config{Costs: sim.UnitCosts()}, 2)
	w.run(1, 0, 200, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 50; k++ {
			w.s.Execute(th, tid, uc.Insert(k, k))
		}
	})
	fencesBefore := w.sys.Metrics().Snapshot().Fences
	statsBefore := w.sys.Scheduler()
	_ = statsBefore
	w.run(1, 0, 201, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 200; k++ {
			w.s.Execute(th, tid, uc.Get(k%50))
			w.s.Execute(th, tid, uc.Contains(k%50))
		}
	})
	if got := w.sys.Metrics().Snapshot().Fences; got != fencesBefore {
		t.Errorf("reads executed %d fences; SOFT reads must not fence", got-fencesBefore)
	}
}

func TestOneFlushOneFencePerUpdate(t *testing.T) {
	w := build(t, Config{Buckets: 64}, nvm.Config{Costs: sim.UnitCosts()}, 3)
	before := w.sys.Metrics().Snapshot().Fences
	const updates = 40
	w.run(1, 0, 300, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < updates; k++ {
			w.s.Execute(th, tid, uc.Insert(k, k))
		}
	})
	if got := w.sys.Metrics().Snapshot().Fences - before; got != updates {
		t.Errorf("%d fences for %d inserts; want exactly one each", got, updates)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	const workers, per = 8, 50
	w := build(t, Config{Buckets: 128}, nvm.Config{Costs: sim.UnitCosts()}, 4)
	w.run(workers, 0, 400, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < per; i++ {
			k := uint64(tid)*1000 + i
			if got := w.s.Execute(th, tid, uc.Insert(k, k+5)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
	})
	w.run(1, 0, 401, func(th *sim.Thread, tid int) {
		if got := w.s.size(th); got != workers*per {
			t.Errorf("size = %d, want %d", got, workers*per)
		}
		for tid2 := 0; tid2 < workers; tid2++ {
			for i := uint64(0); i < per; i++ {
				k := uint64(tid2)*1000 + i
				if got := w.s.Get(th, k); got != k+5 {
					t.Errorf("get(%d) = %d", k, got)
				}
			}
		}
	})
}

func TestPNodeReuse(t *testing.T) {
	w := build(t, Config{Buckets: 16, PersistentWords: 1 << 12}, nvm.Config{}, 5)
	w.run(1, 0, 500, func(th *sim.Thread, tid int) {
		// Insert/delete cycles far beyond slab capacity must succeed thanks
		// to node reuse. Slab: (4096−8)/8 ≈ 511 nodes; run 2000 cycles.
		for i := uint64(0); i < 2000; i++ {
			if got := w.s.Execute(th, tid, uc.Insert(i, i)); got != 1 {
				t.Fatalf("insert %d = %d", i, got)
			}
			if got := w.s.Execute(th, tid, uc.Delete(i)); got != 1 {
				t.Fatalf("delete %d = %d", i, got)
			}
		}
	})
}

func TestConcurrentMixedWorkloadOverlappingKeys(t *testing.T) {
	// Regression test: concurrent inserts/deletes on overlapping keys from
	// different buckets exercise the shared allocators concurrently; an
	// unserialized allocator corrupts its free lists and eventually hands
	// out blocks overlapping the lock array (the bug showed up as four
	// forever-held consecutive bucket locks).
	const workers, perWorker = 8, 400
	w := build(t, Config{Buckets: 1024}, nvm.Config{Costs: sim.UnitCosts()}, 11)
	w.run(workers, 0, 1100, func(th *sim.Thread, tid int) {
		rng := rand.New(rand.NewSource(int64(th.ID())))
		for i := 0; i < perWorker; i++ {
			k := uint64(rng.Intn(512)) // heavy key overlap across workers
			switch rng.Intn(3) {
			case 0:
				w.s.Execute(th, tid, uc.Insert(k, k))
			case 1:
				w.s.Execute(th, tid, uc.Delete(k))
			default:
				w.s.Execute(th, tid, uc.Get(k))
			}
		}
	})
	// The table must still be structurally sound: no lock left held, no
	// cycles, every remaining key in range.
	w.run(1, 0, 1101, func(th *sim.Thread, tid int) {
		if held := w.s.heldLocks(th); len(held) != 0 {
			t.Errorf("bucket locks still held after quiescence: %v", held)
		}
		for b := uint64(0); b < 1024; b++ {
			if c := w.s.chainLen(th, b, 1<<16); c >= 1<<16 {
				t.Fatalf("bucket %d chain has a cycle", b)
			}
		}
		for k := uint64(0); k < 512; k++ {
			if got := w.s.Get(th, k); got != uc.NotFound && got != k {
				t.Errorf("key %d holds foreign value %d", k, got)
			}
		}
	})
}

func TestCrashRecoversCompletedUpdates(t *testing.T) {
	const workers = 4
	cfg := Config{Buckets: 128}
	w := build(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 256, Seed: 9}, 6)
	completed := make([]uint64, workers)
	sch := w.run(workers, 40_000, 600, func(th *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			k := uint64(tid)<<32 | i
			w.s.Execute(th, tid, uc.Insert(k, k))
			completed[tid] = i + 1
		}
	})
	if !sch.Frozen() {
		t.Fatal("did not crash")
	}
	recSch := sim.New(700)
	recSys := w.sys.Recover(recSch)
	var rec *Soft
	recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
		rec, _, _ = Recover(th, recSys, cfg)
	})
	recSch.Run()
	sch2 := sim.New(701)
	recSys.SetScheduler(sch2)
	sch2.Spawn("check", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < completed[tid]; i++ {
				k := uint64(tid)<<32 | i
				if got := rec.Get(th, k); got != k {
					t.Errorf("completed insert (%d,%d) lost after crash", tid, i)
				}
			}
		}
	})
	sch2.Run()
}

func TestDeletedKeysStayDeletedAfterCrash(t *testing.T) {
	cfg := Config{Buckets: 64}
	w := build(t, cfg, nvm.Config{}, 7)
	w.run(1, 0, 800, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 40; k++ {
			w.s.Execute(th, tid, uc.Insert(k, k))
		}
		for k := uint64(0); k < 40; k += 2 {
			w.s.Execute(th, tid, uc.Delete(k))
		}
	})
	// Clean shutdown then "crash": everything fenced, so recovery must see
	// exactly the odd keys.
	recSch := sim.New(900)
	recSys := w.sys.Recover(recSch)
	var rec *Soft
	var n uint64
	recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
		rec, n, _ = Recover(th, recSys, cfg)
	})
	recSch.Run()
	if n != 20 {
		t.Errorf("recovered %d keys, want 20", n)
	}
	sch2 := sim.New(901)
	recSys.SetScheduler(sch2)
	sch2.Spawn("check", 0, 0, func(th *sim.Thread) {
		for k := uint64(0); k < 40; k++ {
			want := k
			if k%2 == 0 {
				want = uc.NotFound
			}
			if got := rec.Get(th, k); got != want {
				t.Errorf("get(%d) = %d, want %d", k, got, want)
			}
		}
	})
	sch2.Run()
}

// heldLocks returns the indexes of the buckets whose lock cannot be taken.
func (s *Soft) heldLocks(t *sim.Thread) []uint64 {
	var held []uint64
	for b := range s.bucketLocks {
		if l := &s.bucketLocks[b]; l.TryAcquire(t) {
			l.Release(t)
		} else {
			held = append(held, uint64(b))
		}
	}
	return held
}

// Four threads inserting into one bucket hand its lock to each other, and
// the hand-offs count: every SOFT lock is built once, with the table.
func TestBucketLockHandoffs(t *testing.T) {
	w := build(t, Config{Buckets: 1}, nvm.Config{}, 1)
	w.run(4, 0, 2, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 20; i++ {
			w.s.Execute(th, tid, uc.Insert(uint64(tid)*100+i, i))
		}
	})
	if met := w.sys.Metrics(); met.LockHandoffs == 0 {
		t.Fatalf("%d lock acquisitions, no hand-off", met.LockAcquisitions)
	}
}

// A warm SOFT lock acquisition allocates nothing, waiting or not: the locks
// are built once, and each thread waits in its own reused Wait.
func TestUpdateWaitAllocatesNothing(t *testing.T) {
	w := build(t, Config{Buckets: 1}, nvm.Config{}, 1)
	sch := sim.New(0)
	w.sys.SetScheduler(sch)
	var allocs float64
	done := false
	sch.Spawn("worker", 0, 0, func(th *sim.Thread) {
		allocs = testing.AllocsPerRun(50, func() {
			l := w.s.lockBucket(th, 1)
			th.Step(100)
			l.Release(th)
		})
		done = true
	})
	// The rival holds the table's one bucket lock for long stretches, so the
	// worker's acquisitions wait.
	sch.Spawn("rival", 1, 0, func(th *sim.Thread) {
		for !done {
			l := w.s.lockBucket(th, 2)
			th.Step(3000)
			l.Release(th)
			th.Step(500)
		}
	})
	sch.Run()
	if allocs != 0 {
		t.Fatalf("a warm SOFT lock acquisition allocates %v times, want 0", allocs)
	}
	if met := w.sys.Metrics(); met.LockHandoffs == 0 {
		t.Fatal("the worker never waited for the rival")
	}
}

// chainLen walks bucket b's volatile chain up to max nodes and returns the
// count (max indicates a probable cycle).
func (s *Soft) chainLen(t *sim.Thread, b, max uint64) uint64 {
	var n uint64
	for v := s.vmem.Load(t, s.bucketsOff+b); v != 0 && n < max; v = s.vmem.Load(t, v+vnNext) {
		n++
	}
	return n
}
