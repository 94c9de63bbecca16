package onll

import (
	"testing"

	"prepuc/internal/linearize"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func testCfg(workers int) Config {
	return Config{
		Workers:    workers,
		Object:     seq.HashMapType(128),
		HeapWords:  1 << 20,
		LogEntries: 1 << 12,
	}
}

type world struct {
	sys *nvm.System
	o   *ONLL
}

func build(t *testing.T, cfg Config, nvmCfg nvm.Config, seed int64) *world {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvmCfg)
	w := &world{sys: sys}
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) { w.o, err = New(th, sys, cfg) })
	sch.Run()
	if err != nil {
		t.Fatal(err)
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

func TestSequentialSemantics(t *testing.T) {
	w := build(t, testCfg(1), nvm.Config{}, 1)
	w.run(1, 0, 100, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 40; k++ {
			if got := w.o.Execute(th, tid, uc.Insert(k, k*2)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
		for k := uint64(0); k < 40; k++ {
			if got := w.o.Execute(th, tid, uc.Get(k)); got != k*2 {
				t.Errorf("get(%d) = %d", k, got)
			}
		}
		if got := w.o.Execute(th, tid, uc.Delete(3)); got != 1 {
			t.Errorf("delete = %d", got)
		}
	})
}

func TestReadsDoNotFlushOrFence(t *testing.T) {
	w := build(t, testCfg(2), nvm.Config{Costs: sim.UnitCosts()}, 2)
	w.run(1, 0, 200, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 20; k++ {
			w.o.Execute(th, tid, uc.Insert(k, k))
		}
	})
	before := w.sys.Metrics().Snapshot().Fences
	w.run(1, 0, 201, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 100; k++ {
			w.o.Execute(th, tid, uc.Get(k%20))
		}
	})
	if got := w.sys.Metrics().Snapshot().Fences; got != before {
		t.Errorf("reads executed %d fences; ONLL reads must not fence", got-before)
	}
}

func TestOneFencePerUpdate(t *testing.T) {
	w := build(t, testCfg(1), nvm.Config{Costs: sim.UnitCosts()}, 3)
	before := w.sys.Metrics().Snapshot().Fences
	const updates = 30
	w.run(1, 0, 300, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < updates; k++ {
			w.o.Execute(th, tid, uc.Insert(k, k))
		}
	})
	if got := w.sys.Metrics().Snapshot().Fences - before; got != updates {
		t.Errorf("%d fences for %d updates, want one each", got, updates)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	const workers, per = 6, 40
	w := build(t, testCfg(workers), nvm.Config{Costs: sim.UnitCosts()}, 4)
	w.run(workers, 0, 400, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < per; i++ {
			k := uint64(tid)*1000 + i
			if got := w.o.Execute(th, tid, uc.Insert(k, k)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
	})
	w.run(1, 0, 401, func(th *sim.Thread, tid int) {
		for tid2 := 0; tid2 < workers; tid2++ {
			for i := uint64(0); i < per; i++ {
				k := uint64(tid2)*1000 + i
				if got := w.o.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("get(%d) = %d", k, got)
				}
			}
		}
	})
}

// workerKey is worker tid's i-th key of the insert workload.
func workerKey(tid int, i uint64) uint64 { return uint64(tid)<<32 | i }

func TestCrashLosesNoCompletedOp(t *testing.T) {
	const workers = 6
	for _, crashAt := range []uint64{30_000, 90_000, 250_000} {
		cfg := testCfg(workers)
		w := build(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: crashAt}, int64(crashAt))
		hist := linearize.NewRecorder(workers)
		invoked := make([]uint64, workers)
		sch := w.run(workers, crashAt, int64(crashAt)+1, func(th *sim.Thread, tid int) {
			for i := uint64(0); ; i++ {
				op := uc.Insert(workerKey(tid, i), i)
				invoked[tid] = i + 1
				hist.Exec(th, tid, op, func() uint64 { return w.o.Execute(th, tid, op) })
			}
		})
		if !sch.Frozen() {
			t.Fatal("did not crash")
		}
		recSch := sim.New(int64(crashAt) + 2)
		recSys := w.sys.Recover(recSch)
		var rec *ONLL
		var err error
		recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
			rec, _, err = Recover(th, recSys, cfg)
		})
		recSch.Run()
		if err != nil {
			t.Fatal(err)
		}
		state := map[uint64]uint64{}
		chk := sim.New(int64(crashAt) + 3)
		recSys.SetScheduler(chk)
		chk.Spawn("probe", 0, 0, func(th *sim.Thread) {
			for tid := 0; tid < workers; tid++ {
				for i := uint64(0); i < invoked[tid]+16; i++ {
					if v := rec.Execute(th, 0, uc.Get(workerKey(tid, i))); v != uc.NotFound {
						state[workerKey(tid, i)] = v
					}
				}
			}
		})
		chk.Run()
		if res := linearize.CheckEpoch(linearize.SetModel(), nil, hist.Ops(), state, linearize.Options{}); !res.OK {
			t.Errorf("crashAt=%d: %s", crashAt, res)
		}
	}
}

func TestRecoveredInstanceUsableAndRecrashable(t *testing.T) {
	cfg := testCfg(4)
	w := build(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 9)
	w.run(4, 0, 900, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 25; i++ {
			w.o.Execute(th, tid, uc.Insert(workerKey(tid, i), i))
		}
	})
	recSch := sim.New(901)
	recSys := w.sys.Recover(recSch)
	var rec *ONLL
	var replayed uint64
	var err error
	recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
		rec, replayed, err = Recover(th, recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 100 {
		t.Errorf("replayed %d ops, want 100", replayed)
	}
	// Use it, crash again, recover again.
	sch := sim.New(902)
	recSys.SetScheduler(sch)
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); i < 10; i++ {
			rec.Execute(th, 0, uc.Insert(1<<40|i, i))
		}
	})
	sch.Run()
	rec2Sch := sim.New(903)
	recSys2 := recSys.Recover(rec2Sch)
	var rec2 *ONLL
	cfg2 := rec.cfg
	rec2Sch.Spawn("rec2", 0, 0, func(th *sim.Thread) {
		rec2, _, err = Recover(th, recSys2, cfg2)
	})
	rec2Sch.Run()
	if err != nil {
		t.Fatal(err)
	}
	chk := sim.New(904)
	recSys2.SetScheduler(chk)
	chk.Spawn("chk", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); i < 10; i++ {
			if got := rec2.Execute(th, 0, uc.Get(1<<40|i)); got != i {
				t.Errorf("second recovery lost op %d", i)
			}
		}
	})
	chk.Run()
}

func TestChecksumDetectsTornEntry(t *testing.T) {
	recs := []opRec{{index: 1, code: 2, a0: 3, a1: 4}}
	c := checksum(recs)
	recs[0].a0 = 99
	if checksum(recs) == c {
		t.Error("checksum insensitive to op mutation")
	}
	if checksum(nil) == 0 {
		t.Error("empty checksum must not be zero (zeroed NVM must not validate)")
	}
}

func TestEntryWordsLineAligned(t *testing.T) {
	for n := 1; n <= 16; n++ {
		if w := entryWords(n); w%nvm.WordsPerLine != 0 {
			t.Errorf("entryWords(%d) = %d not line aligned", n, w)
		}
	}
}

// Recovery re-logs every replayed operation, so a rebuilt generation's logs
// must fit whatever the source's logs held: replayed under the worker that
// logged it, an operation lands in the log it came from. Two chained epochs
// of 4×12 inserts total 96 operations, more than one 64-entry log, while
// each worker's share (24) stays below it.
func TestChainedRecoveriesFitPerWorkerLogs(t *testing.T) {
	const workers, per = 4, 12
	cfg := testCfg(workers)
	cfg.LogEntries = 64
	w := build(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 11)
	for epoch := uint64(0); epoch < 2; epoch++ {
		w.run(workers, 0, int64(1100+epoch), func(th *sim.Thread, tid int) {
			for i := epoch * per; i < (epoch+1)*per; i++ {
				w.o.Execute(th, tid, uc.Insert(workerKey(tid, i), i))
			}
		})
		recSch := sim.New(0)
		w.sys = w.sys.Recover(recSch)
		var replayed uint64
		var err error
		recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
			w.o, replayed, err = Recover(th, w.sys, cfg)
		})
		recSch.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want := (epoch + 1) * per * workers; replayed != want {
			t.Fatalf("epoch %d: replayed %d ops, want %d", epoch, replayed, want)
		}
	}
	w.run(1, 0, 1102, func(th *sim.Thread, _ int) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < 2*per; i++ {
				if got := w.o.Execute(th, 0, uc.Get(workerKey(tid, i))); got != i {
					t.Errorf("get(worker %d, %d) = %d", tid, i, got)
				}
			}
		}
	})
}
