package cxpuc

import (
	"reflect"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func testCfg(workers int) Config {
	return Config{
		Workers:       workers,
		Object:        seq.HashMapType(64),
		HeapWords:     1 << 18,
		QueueCapacity: 1 << 14,
		CapReplicas:   8,
	}
}

type world struct {
	sys *nvm.System
	cx  *CX
}

func build(t *testing.T, cfg Config, nvmCfg nvm.Config, seed int64) *world {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvmCfg)
	w := &world{sys: sys}
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		w.cx, err = New(th, sys, cfg)
	})
	sch.Run()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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

// A warm CX-PUC queue wait allocates nothing: the helper waits for each entry
// in the instance's reused Wait, parked while the enqueuer is slow to write
// it, until the entry's state store wakes it.
func TestUpdateWaitAllocatesNothing(t *testing.T) {
	w := build(t, testCfg(2), nvm.Config{}, 1)
	sch := sim.New(0)
	w.sys.SetScheduler(sch)
	var allocs float64
	sch.Spawn("helper", 0, 0, func(th *sim.Thread) {
		i := uint64(0)
		allocs = testing.AllocsPerRun(50, func() {
			i++
			if code, a0, _ := w.cx.readQueued(th, i); code != uc.OpInsert || a0 != i-1 {
				t.Errorf("entry %d reads op %d on key %d, want the insert of key %d", i, code, a0, i-1)
			}
		})
	})
	// The enqueuer works in short steps before each entry, so the helper's
	// rounds run inline between them and park.
	sch.Spawn("enqueuer", 1, 0, func(th *sim.Thread) {
		for k := uint64(0); k < 51; k++ {
			for j := 0; j < 50; j++ {
				th.Step(100)
			}
			w.cx.enqueue(th, uc.Insert(k, k))
		}
	})
	sch.Run()
	if allocs != 0 {
		t.Fatalf("a warm queue wait allocates %v times, want 0", allocs)
	}
	if parks := reflect.ValueOf(sch).Elem().FieldByName("parks").Uint(); parks < 51 {
		t.Fatalf("the helper parked %d times in 51 waits, want at least once per wait", parks)
	}
}

func TestSequentialSemantics(t *testing.T) {
	w := build(t, testCfg(1), nvm.Config{}, 1)
	w.run(1, 0, 100, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 30; k++ {
			if got := w.cx.Execute(th, tid, uc.Insert(k, k*3)); got != 1 {
				t.Errorf("insert(%d) = %d", k, got)
			}
		}
		for k := uint64(0); k < 30; k++ {
			if got := w.cx.Execute(th, tid, uc.Get(k)); got != k*3 {
				t.Errorf("get(%d) = %d", k, got)
			}
		}
		if got := w.cx.Execute(th, tid, uc.Delete(5)); got != 1 {
			t.Errorf("delete = %d", got)
		}
		if got := w.cx.Execute(th, tid, uc.Get(5)); got != uc.NotFound {
			t.Errorf("get deleted = %d", got)
		}
	})
}

func TestConcurrentDistinctKeys(t *testing.T) {
	const workers, per = 6, 40
	w := build(t, testCfg(workers), nvm.Config{Costs: sim.UnitCosts()}, 2)
	w.run(workers, 0, 200, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < per; i++ {
			k := uint64(tid)*1000 + i
			if got := w.cx.Execute(th, tid, uc.Insert(k, k)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
	})
	w.run(1, 0, 300, func(th *sim.Thread, tid int) {
		for tid2 := 0; tid2 < workers; tid2++ {
			for i := uint64(0); i < per; i++ {
				k := uint64(tid2)*1000 + i
				if got := w.cx.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("get(%d) = %d", k, got)
				}
			}
		}
	})
}

func TestReplicaCountCapped(t *testing.T) {
	w := build(t, testCfg(6), nvm.Config{}, 3)
	if len(w.cx.reps) != 8 {
		t.Errorf("replicas = %d, want cap 8", len(w.cx.reps))
	}
	cfg := testCfg(2)
	cfg.CapReplicas = 0
	w2 := build(t, cfg, nvm.Config{}, 4)
	if len(w2.cx.reps) != 4 {
		t.Errorf("replicas = %d, want 2n = 4", len(w2.cx.reps))
	}
}

func TestWholeReplicaFlushHappens(t *testing.T) {
	w := build(t, testCfg(2), nvm.Config{Costs: sim.UnitCosts()}, 5)
	before := w.sys.Metrics().Snapshot().Fences
	w.run(2, 0, 500, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 10; i++ {
			w.cx.Execute(th, tid, uc.Insert(uint64(tid)*100+i, 1))
		}
	})
	if w.sys.Metrics().Snapshot().Fences <= before {
		t.Error("no replica flushes recorded for an update workload")
	}
}

func TestCrashRecoversCompletedUpdates(t *testing.T) {
	// CX-PUC is durably linearizable: every completed update must survive.
	const workers = 4
	cfg := testCfg(workers)
	w := build(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 256, Seed: 7}, 6)
	completed := make([]uint64, workers)
	sch := w.run(workers, 60_000, 600, func(th *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			k := uint64(tid)<<32 | i
			w.cx.Execute(th, tid, uc.Insert(k, k))
			completed[tid] = i + 1
		}
	})
	if !sch.Frozen() {
		t.Fatal("did not crash")
	}
	recSch := sim.New(700)
	recSys := w.sys.Recover(recSch)
	var rec *CX
	var err error
	recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
		rec, err = Recover(th, recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sch2 := sim.New(701)
	recSys.SetScheduler(sch2)
	sch2.Spawn("check", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < completed[tid]; i++ {
				k := uint64(tid)<<32 | i
				if got := rec.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("completed op (%d,%d) lost after crash", tid, i)
				}
			}
		}
	})
	sch2.Run()
}

func TestPrefillVisible(t *testing.T) {
	w := build(t, testCfg(2), nvm.Config{}, 8)
	w.run(1, 0, 800, func(th *sim.Thread, tid int) {
		ops := make([]uc.Op, 50)
		for i := range ops {
			ops[i] = uc.Insert(uint64(i), uint64(i)*2)
		}
		w.cx.Prefill(th, ops)
		for i := uint64(0); i < 50; i++ {
			if got := w.cx.Execute(th, 0, uc.Get(i)); got != i*2 {
				t.Errorf("get(%d) = %d after prefill", i, got)
			}
		}
	})
}
