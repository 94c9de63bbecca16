package core

import (
	"testing"

	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// testTopo is a small machine: 2 nodes × 4 threads.
func testTopo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: 4} }

func hashCfg(mode Mode, workers int, logSize, eps uint64) Config {
	obj := seq.HashMapType(64)
	return Config{
		Mode:      mode,
		Topology:  testTopo(),
		Workers:   workers,
		LogSize:   logSize,
		Epsilon:   eps,
		Factory:   obj.New,
		Attacher:  obj.Attach,
		HeapWords: 1 << 20,
	}
}

// world is a built engine plus the machinery to run worker phases on it.
type world struct {
	t    *testing.T
	sys  *nvm.System
	p    *PREP
	seed int64
}

// newWorld boots an engine on a fresh system.
func newWorld(t *testing.T, cfg Config, nvmCfg nvm.Config, seed int64) *world {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvmCfg)
	w := &world{t: t, sys: sys, seed: seed}
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		w.p, err = New(th, sys, cfg)
	})
	sch.Run()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return w
}

// runWorkers executes fn(th, tid) for each worker on a fresh scheduler,
// with the persistence thread running in persistent modes. The last worker
// to finish stops the persistence thread. Returns the scheduler (frozen if
// crashAt fired).
func (w *world) runWorkers(workers int, crashAt uint64, fn func(th *sim.Thread, tid int)) *sim.Scheduler {
	w.t.Helper()
	sch := sim.New(w.seed + 1000)
	if crashAt != 0 {
		sch.CrashAtEvent(crashAt)
	}
	w.sys.SetScheduler(sch)
	persistent := w.p.cfg.Mode.Persistent()
	if persistent {
		w.p.SpawnPersistence(0)
	}
	remaining := workers
	for tid := 0; tid < workers; tid++ {
		tid := tid
		node := w.p.cfg.Topology.NodeOf(tid)
		sch.Spawn("worker", node, 0, func(th *sim.Thread) {
			defer func() {
				remaining--
				if remaining == 0 && persistent && !sch.Frozen() {
					w.p.StopPersistence(th)
				}
			}()
			fn(th, tid)
		})
	}
	sch.Run()
	return sch
}

// query runs a read-only inspection phase with a single thread.
func (w *world) query(fn func(th *sim.Thread)) {
	w.t.Helper()
	sch := sim.New(w.seed + 2000)
	w.sys.SetScheduler(sch)
	sch.Spawn("query", 0, 0, fn)
	sch.Run()
}

func TestVolatileSingleWorkerSequential(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 1, 256, 0), nvm.Config{}, 1)
	w.runWorkers(1, 0, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 50; k++ {
			if got := w.p.Execute(th, tid, uc.Insert(k, k*2)); got != 1 {
				t.Errorf("insert(%d) = %d, want 1", k, got)
			}
		}
		for k := uint64(0); k < 50; k++ {
			if got := w.p.Execute(th, tid, uc.Get(k)); got != k*2 {
				t.Errorf("get(%d) = %d, want %d", k, got, k*2)
			}
		}
		if got := w.p.Execute(th, tid, uc.Delete(7)); got != 1 {
			t.Errorf("delete = %d, want 1", got)
		}
		if got := w.p.Execute(th, tid, uc.Get(7)); got != uc.NotFound {
			t.Errorf("get deleted = %d", got)
		}
	})
}

func TestVolatileConcurrentDistinctKeys(t *testing.T) {
	const workers, perWorker = 8, 60
	w := newWorld(t, hashCfg(Volatile, workers, 1024, 0), nvm.Config{Costs: sim.UnitCosts()}, 2)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			k := uint64(tid)*1000 + i
			if got := w.p.Execute(th, tid, uc.Insert(k, k+7)); got != 1 {
				t.Errorf("worker %d insert(%d) = %d", tid, k, got)
			}
		}
	})
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != workers*perWorker {
			t.Errorf("size = %d, want %d", got, workers*perWorker)
		}
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < perWorker; i++ {
				k := uint64(tid)*1000 + i
				if got := w.p.Execute(th, 0, uc.Get(k)); got != k+7 {
					t.Errorf("get(%d) = %d, want %d", k, got, k+7)
				}
			}
		}
	})
}

func TestReadsSeeCompletedUpdates(t *testing.T) {
	// A worker on node 1 must observe a value inserted by a worker on node 0
	// once the insert has completed (reads wait for completedTail).
	const workers = 8 // spans both nodes
	w := newWorld(t, hashCfg(Volatile, workers, 512, 0), nvm.Config{Costs: sim.UnitCosts()}, 3)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		// Every worker inserts its key then reads every key it has already
		// written, alternating; reads of its own completed writes must hit.
		for i := uint64(0); i < 40; i++ {
			k := uint64(tid)*100 + i
			w.p.Execute(th, tid, uc.Insert(k, k))
			if got := w.p.Execute(th, tid, uc.Get(k)); got != k {
				t.Errorf("worker %d read own write %d: got %d", tid, k, got)
			}
		}
	})
}

func TestStackResponsesLinearizable(t *testing.T) {
	// Workers push unique values and pop; every pop response must be a value
	// pushed exactly once, or NotFound, and accounting must balance.
	const workers, pairs = 8, 50
	cfg := hashCfg(Volatile, workers, 1024, 0)
	stack := seq.StackType()
	cfg.Factory, cfg.Attacher = stack.New, stack.Attach
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 4)
	popped := make([]map[uint64]int, workers)
	emptyPops := make([]int, workers)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		popped[tid] = map[uint64]int{}
		for i := uint64(0); i < pairs; i++ {
			v := uint64(tid)*1000 + i + 1
			w.p.Execute(th, tid, uc.Op{Code: uc.OpPush, A0: v})
			res := w.p.Execute(th, tid, uc.Op{Code: uc.OpPop})
			if res == uc.NotFound {
				emptyPops[tid]++
			} else {
				popped[tid][res]++
			}
		}
	})
	all := map[uint64]int{}
	totalPopped := 0
	for tid := range popped {
		for v, c := range popped[tid] {
			all[v] += c
			totalPopped += c
		}
	}
	for v, c := range all {
		if c > 1 {
			t.Errorf("value %d popped %d times", v, c)
		}
		wtid := (v - 1) / 1000
		if wtid >= workers || (v-1)%1000 >= pairs {
			t.Errorf("popped value %d was never pushed", v)
		}
	}
	var finalSize uint64
	w.query(func(th *sim.Thread) {
		finalSize = w.p.Execute(th, 0, uc.Size())
	})
	if uint64(totalPopped)+finalSize != workers*pairs {
		t.Errorf("pushed %d, popped %d, remaining %d: accounting broken",
			workers*pairs, totalPopped, finalSize)
	}
}

func TestLogWrapsManyTimes(t *testing.T) {
	// Log of 32 entries, hundreds of updates from both nodes: exercises
	// emptyBit parity, logMin advancement and helping.
	const workers, perWorker = 8, 80
	w := newWorld(t, hashCfg(Volatile, workers, 32, 0), nvm.Config{Costs: sim.UnitCosts()}, 5)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			k := uint64(tid)*1000 + i
			w.p.Execute(th, tid, uc.Insert(k, k))
		}
	})
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != workers*perWorker {
			t.Errorf("size = %d, want %d", got, workers*perWorker)
		}
		if tail := w.p.log.LogTail(th); tail != workers*perWorker {
			t.Errorf("logTail = %d, want %d (one entry per update)", tail, workers*perWorker)
		}
	})
}

func TestBufferedRunsAndPersists(t *testing.T) {
	const workers, perWorker = 8, 100
	cfg := hashCfg(Buffered, workers, 128, 32)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 6)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			k := uint64(tid)*1000 + i
			w.p.Execute(th, tid, uc.Insert(k, k))
		}
	})
	if w.p.Stats().PersistCycles == 0 {
		t.Error("no persistence cycles despite ops >> ε")
	}
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != workers*perWorker {
			t.Errorf("size = %d, want %d", got, workers*perWorker)
		}
	})
}

func TestDurableRunsCorrectly(t *testing.T) {
	const workers, perWorker = 8, 60
	cfg := hashCfg(Durable, workers, 128, 32)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 7)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			k := uint64(tid)*1000 + i
			if got := w.p.Execute(th, tid, uc.Insert(k, k)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
	})
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != workers*perWorker {
			t.Errorf("size = %d, want %d", got, workers*perWorker)
		}
	})
}

// crashRun drives a crash-recovery scenario: workers insert per-worker
// sequential keys until the crash; recovery returns the recovered engine and
// the per-worker completed-op counts.
type crashResult struct {
	completed []uint64 // per worker: ops whose Execute returned
	rec       *PREP
	report    *RecoveryReport
	recSys    *nvm.System
}

func crashAndRecover(t *testing.T, cfg Config, nvmCfg nvm.Config, seed int64, workers int, crashAt uint64) *crashResult {
	t.Helper()
	w := newWorld(t, cfg, nvmCfg, seed)
	res := &crashResult{completed: make([]uint64, workers)}
	sch := w.runWorkers(workers, crashAt, func(th *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			k := uint64(tid)<<32 | i
			w.p.Execute(th, tid, uc.Insert(k, k))
			res.completed[tid] = i + 1
		}
	})
	if !sch.Frozen() {
		t.Fatal("run finished without crashing; raise crashAt")
	}
	recSch := sim.New(seed + 5000)
	res.recSys = w.sys.Recover(recSch)
	var err error
	recSch.Spawn("recover", 0, 0, func(th *sim.Thread) {
		res.rec, res.report, err = Recover(th, res.recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return res
}

// recoveredKeys reads back which of each worker's keys survived.
func recoveredKeys(t *testing.T, res *crashResult, workers int) [][]bool {
	t.Helper()
	out := make([][]bool, workers)
	sch := sim.New(12345)
	res.recSys.SetScheduler(sch)
	sch.Spawn("inspect", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			n := res.completed[tid] + 64 // probe a bit past completion
			out[tid] = make([]bool, n)
			for i := uint64(0); i < n; i++ {
				k := uint64(tid)<<32 | i
				got := res.rec.Execute(th, 0, uc.Get(k))
				out[tid][i] = got != uc.NotFound
			}
		}
	})
	sch.Run()
	return out
}

func TestBufferedCrashLossBound(t *testing.T) {
	const workers = 8
	beta := uint64(testTopo().ThreadsPerNode)
	for _, crashAt := range []uint64{30_000, 120_000, 400_000} {
		cfg := hashCfg(Buffered, workers, 128, 32)
		res := crashAndRecover(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 512, Seed: 9}, int64(crashAt), workers, crashAt)
		keys := recoveredKeys(t, res, workers)

		var lostCompleted uint64
		for tid := 0; tid < workers; tid++ {
			// Per-worker prefix property: a worker's recovered keys must be a
			// prefix of its insertion order (ops of one thread are logged in
			// program order).
			firstMissing := uint64(len(keys[tid]))
			for i, ok := range keys[tid] {
				if !ok {
					firstMissing = uint64(i)
					break
				}
			}
			for i := firstMissing; i < uint64(len(keys[tid])); i++ {
				if keys[tid][i] {
					t.Fatalf("crashAt=%d worker %d: key %d recovered but %d missing (not a prefix)",
						crashAt, tid, i, firstMissing)
				}
			}
			if res.completed[tid] > firstMissing {
				lostCompleted += res.completed[tid] - firstMissing
			}
		}
		bound := cfg.Epsilon + beta - 1
		if lostCompleted > bound {
			t.Errorf("crashAt=%d: lost %d completed ops, bound ε+β−1 = %d",
				crashAt, lostCompleted, bound)
		}
	}
}

func TestDurableCrashLosesNoCompletedOp(t *testing.T) {
	const workers = 8
	for _, crashAt := range []uint64{50_000, 200_000, 600_000} {
		cfg := hashCfg(Durable, workers, 128, 32)
		res := crashAndRecover(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 512, Seed: 11}, int64(crashAt)+1, workers, crashAt)
		keys := recoveredKeys(t, res, workers)
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < res.completed[tid]; i++ {
				if !keys[tid][i] {
					t.Errorf("crashAt=%d worker %d: completed op %d lost (durable!)", crashAt, tid, i)
				}
			}
		}
		if res.report.Holes != 0 {
			t.Errorf("crashAt=%d: %d holes below completedTail", crashAt, res.report.Holes)
		}
	}
}

func TestCrashBeforeFirstCycleRecoversEmpty(t *testing.T) {
	const workers = 4
	cfg := hashCfg(Buffered, workers, 1024, 512)
	// Crash almost immediately: well before ε ops complete.
	res := crashAndRecover(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 21, workers, 3000)
	sch := sim.New(99)
	res.recSys.SetScheduler(sch)
	sch.Spawn("inspect", 0, 0, func(th *sim.Thread) {
		size := res.rec.Execute(th, 0, uc.Size())
		// Buffered: possibly everything lost; state must still be a valid
		// (small) prefix.
		if size > cfg.Epsilon+uint64(testTopo().ThreadsPerNode) {
			t.Errorf("recovered size %d exceeds loss-window expectation", size)
		}
	})
	sch.Run()
}

func TestRecoveredEngineIsUsable(t *testing.T) {
	const workers = 8
	cfg := hashCfg(Durable, workers, 128, 32)
	res := crashAndRecover(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 31, workers, 100_000)
	// Run a second workload phase on the recovered engine.
	sch := sim.New(777)
	res.recSys.SetScheduler(sch)
	res.rec.SpawnPersistence(0)
	remaining := workers
	for tid := 0; tid < workers; tid++ {
		tid := tid
		sch.Spawn("w2", cfg.Topology.NodeOf(tid), 0, func(th *sim.Thread) {
			defer func() {
				remaining--
				if remaining == 0 {
					res.rec.StopPersistence(th)
				}
			}()
			for i := uint64(0); i < 50; i++ {
				k := 1<<62 | uint64(tid)<<40 | i
				if got := res.rec.Execute(th, tid, uc.Insert(k, k)); got != 1 {
					t.Errorf("post-recovery insert = %d", got)
				}
			}
		})
	}
	sch.Run()
	sch2 := sim.New(778)
	res.recSys.SetScheduler(sch2)
	sch2.Spawn("check", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < 50; i++ {
				k := 1<<62 | uint64(tid)<<40 | i
				if got := res.rec.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("post-recovery get(%d) = %d", k, got)
				}
			}
		}
	})
	sch2.Run()
}

func TestDoubleCrash(t *testing.T) {
	const workers = 4
	cfg := hashCfg(Durable, workers, 128, 32)
	res := crashAndRecover(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 41, workers, 80_000)
	// Crash the recovered engine again mid-run and recover once more.
	sch := sim.New(888)
	sch.CrashAtEvent(40_000)
	res.recSys.SetScheduler(sch)
	res.rec.SpawnPersistence(0)
	completed2 := make([]uint64, workers)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		sch.Spawn("w2", cfg.Topology.NodeOf(tid), 0, func(th *sim.Thread) {
			for i := uint64(0); ; i++ {
				k := 1<<62 | uint64(tid)<<40 | i
				res.rec.Execute(th, tid, uc.Insert(k, k))
				completed2[tid] = i + 1
			}
		})
	}
	sch.Run()
	if !sch.Frozen() {
		t.Fatal("second run did not crash")
	}
	recSch := sim.New(889)
	recSys2 := res.recSys.Recover(recSch)
	cfg2 := res.rec.cfg
	var rec2 *PREP
	var err error
	recSch.Spawn("recover2", 0, 0, func(th *sim.Thread) {
		rec2, _, err = Recover(th, recSys2, cfg2)
	})
	recSch.Run()
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	// All phase-2 completed ops must survive (durable).
	sch3 := sim.New(890)
	recSys2.SetScheduler(sch3)
	sch3.Spawn("check", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			for i := uint64(0); i < completed2[tid]; i++ {
				k := 1<<62 | uint64(tid)<<40 | i
				if got := rec2.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("op (%d,%d) completed before 2nd crash but lost", tid, i)
				}
			}
		}
	})
	sch3.Run()
}

func TestSinglePReplicaUnsound(t *testing.T) {
	// §4.1: with only one persistent replica, background flushes leak
	// mid-update state into NVM; a crash then recovers a state that is not a
	// prefix of any worker's operation sequence. With two replicas the same
	// schedule always recovers a prefix (TestBufferedCrashLossBound).
	const workers = 8
	violations := 0
	for seed := int64(0); seed < 24 && violations == 0; seed++ {
		cfg := hashCfg(Buffered, workers, 128, 32)
		cfg.SinglePReplica = true
		func() {
			defer func() {
				if recover() != nil {
					violations++ // recovery walked corrupt state
				}
			}()
			res := crashAndRecover(t, cfg,
				nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 8, Seed: uint64(seed + 1)},
				seed*13+1, workers, 90_000+uint64(seed)*21_001)
			keys := recoveredKeys(t, res, workers)
			for tid := 0; tid < workers; tid++ {
				firstMissing := -1
				for i, ok := range keys[tid] {
					if !ok && firstMissing < 0 {
						firstMissing = i
					}
					if ok && firstMissing >= 0 {
						violations++ // hole: not a prefix
						return
					}
				}
			}
		}()
	}
	if violations == 0 {
		t.Error("single persistent replica produced no recovery anomaly across seeds; hazard not exercised")
	}
}

func TestAblationVariantsRun(t *testing.T) {
	const workers, perWorker = 8, 40
	for _, tc := range []struct {
		name    string
		mut     func(*Config)
		noElide bool // the ablation-flushelide cell's substrate switch
	}{
		{"NoBatching", func(c *Config) { c.NoBatching = true }, false},
		{"PerLineFlush", func(c *Config) { c.PerLineFlush = true }, false},
		{"NoFlushElision", func(*Config) {}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hashCfg(Durable, workers, 128, 32)
			tc.mut(&cfg)
			w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 61)
			w.sys.SetFlushElision(!tc.noElide)
			w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
				for i := uint64(0); i < perWorker; i++ {
					k := uint64(tid)*1000 + i
					w.p.Execute(th, tid, uc.Insert(k, k))
				}
			})
			w.query(func(th *sim.Thread) {
				if got := w.p.Execute(th, 0, uc.Size()); got != workers*perWorker {
					t.Errorf("size = %d, want %d", got, workers*perWorker)
				}
			})
		})
	}
}

func TestConfigValidation(t *testing.T) {
	base := hashCfg(Buffered, 4, 64, 16)
	bad := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Workers = 100 },
		func(c *Config) { c.LogSize = 1 },
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.Epsilon = c.LogSize }, // violates ε ≤ LogSize−β−1
		// A log of β entries or fewer has no room for any ε; LogSize−β−1
		// must not wrap around and admit every one.
		func(c *Config) { c.LogSize = uint64(c.Topology.ThreadsPerNode) },
		func(c *Config) { c.LogSize, c.Epsilon = uint64(c.Topology.ThreadsPerNode)-1, 1 },
		func(c *Config) { c.LogSize = c.Epsilon + uint64(c.Topology.ThreadsPerNode) },
		func(c *Config) { c.Factory = nil },
		func(c *Config) { c.Attacher = nil },
		func(c *Config) { c.HeapWords = 0 },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	edge := base // ε = LogSize−β−1 exactly
	edge.LogSize = edge.Epsilon + uint64(edge.Topology.ThreadsPerNode) + 1
	for _, good := range []Config{base, edge} {
		if err := good.Validate(); err != nil {
			t.Errorf("good config rejected: %v", err)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if Volatile.String() != "PREP-V" || Buffered.String() != "PREP-Buffered" || Durable.String() != "PREP-Durable" {
		t.Error("mode names wrong")
	}
	if Volatile.Persistent() || !Buffered.Persistent() || !Durable.Persistent() {
		t.Error("Persistent() wrong")
	}
}

func TestEpsilonGatesLogGrowth(t *testing.T) {
	// With a tiny ε the log tail must never run more than ε+β past the last
	// persisted boundary. We check the weaker, directly observable property
	// that persistence cycles keep pace: cycles ≥ floor(updates/ε) is too
	// strict under batching, so assert at least one cycle per 4ε updates.
	const workers, perWorker = 8, 200
	cfg := hashCfg(Buffered, workers, 4096, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 71)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			k := uint64(tid)*1000 + i
			w.p.Execute(th, tid, uc.Insert(k, k))
		}
	})
	totalUpdates := uint64(workers * perWorker)
	if min := totalUpdates / (4 * cfg.Epsilon); w.p.Stats().PersistCycles < min {
		t.Errorf("persist cycles = %d, want ≥ %d for %d updates at ε=%d",
			w.p.Stats().PersistCycles, min, totalUpdates, cfg.Epsilon)
	}
}
