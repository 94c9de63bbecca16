package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// TestMultiInstanceCoResident boots two fully independent durable engines on
// ONE nvm.System via Config.Instance naming: each owns its own log, replicas,
// descriptor region and commit record. Workloads on disjoint key ranges run
// concurrently, the machine crashes, and each instance recovers from its own
// committed generation — neither sees the other's keys, and neither loses a
// completed operation (durable mode).
func TestMultiInstanceCoResident(t *testing.T) {
	const workers = 2
	mkCfg := func(inst string) Config {
		cfg := hashCfg(Durable, workers, 128, 16)
		cfg.Instance = inst
		return cfg
	}
	cfgA, cfgB := mkCfg("s0"), mkCfg("s1")

	sch := sim.New(7)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 256, Seed: 7})
	var engA, engB *PREP
	var errA, errB error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		engA, errA = New(th, sys, cfgA)
		engB, errB = New(th, sys, cfgB)
	})
	sch.Run()
	if errA != nil || errB != nil {
		t.Fatalf("boot: %v / %v", errA, errB)
	}

	// Run both instances' workloads interleaved on one scheduler until the
	// machine-wide crash.
	run := sim.New(8)
	run.CrashAtEvent(150_000)
	sys.SetScheduler(run)
	engA.SpawnPersistence(0)
	engB.SpawnPersistence(0)
	completedA := make([]uint64, workers)
	completedB := make([]uint64, workers)
	spawn := func(eng *PREP, completed []uint64, base uint64) {
		for tid := 0; tid < workers; tid++ {
			tid := tid
			run.Spawn("w", eng.cfg.Topology.NodeOf(tid), 0, func(th *sim.Thread) {
				for i := uint64(0); ; i++ {
					k := base | uint64(tid)<<32 | i
					eng.Execute(th, tid, uc.Insert(k, k))
					completed[tid] = i + 1
				}
			})
		}
	}
	spawn(engA, completedA, 0)
	spawn(engB, completedB, 1<<62)
	run.Run()
	if !run.Frozen() {
		t.Fatal("workload finished without crashing")
	}

	// One machine crash, two independent recoveries on the recovered system.
	recSch := sim.New(9)
	recSys := sys.Recover(recSch)
	var recA, recB *PREP
	recSch.Spawn("recover", 0, 0, func(th *sim.Thread) {
		recA, _, errA = Recover(th, recSys, cfgA)
		recB, _, errB = Recover(th, recSys, cfgB)
	})
	recSch.Run()
	if errA != nil || errB != nil {
		t.Fatalf("recover: %v / %v", errA, errB)
	}

	check := sim.New(10)
	recSys.SetScheduler(check)
	check.Spawn("inspect", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < workers; tid++ {
			// Durable: every completed op of each instance survives, in its
			// own instance only.
			for i := uint64(0); i < completedA[tid]; i++ {
				k := uint64(tid)<<32 | i
				if got := recA.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("instance s0: completed op (%d,%d) lost", tid, i)
				}
				if got := recB.Execute(th, 0, uc.Get(k)); got != uc.NotFound {
					t.Errorf("instance s1 holds s0's key %d", k)
				}
			}
			for i := uint64(0); i < completedB[tid]; i++ {
				k := 1<<62 | uint64(tid)<<32 | i
				if got := recB.Execute(th, 0, uc.Get(k)); got != k {
					t.Errorf("instance s1: completed op (%d,%d) lost", tid, i)
				}
				if got := recA.Execute(th, 0, uc.Get(k)); got != uc.NotFound {
					t.Errorf("instance s0 holds s1's key %d", k)
				}
			}
		}
	})
	check.Run()

	// Region naming really is namespaced: both instances' generation-0 and
	// recovered-generation regions coexist, plus per-instance commit records.
	for _, name := range []string{
		"s0.g0.log", "s1.g0.log", "s0.g1.log", "s1.g1.log",
		"s0.prep.commit", "s1.prep.commit",
	} {
		if !recSys.HasMemory(name) {
			t.Errorf("expected region %q to exist", name)
		}
	}
	if recSys.HasMemory("g0.log") || recSys.HasMemory("prep.commit") {
		t.Error("instance-prefixed engines created bare-named regions")
	}
}

// TestInstanceGenerationsIndependent crashes a two-instance machine twice,
// but only instance s0 runs load between the crashes: its generation advances
// past s1's, and both still recover correctly — per-shard generations are
// genuinely independent state machines.
func TestInstanceGenerationsIndependent(t *testing.T) {
	const workers = 2
	mkCfg := func(inst string) Config {
		cfg := hashCfg(Durable, workers, 128, 16)
		cfg.Instance = inst
		return cfg
	}
	cfgA, cfgB := mkCfg("s0"), mkCfg("s1")

	sch := sim.New(21)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts(), Seed: 21})
	var engA, engB *PREP
	var errA, errB error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		engA, errA = New(th, sys, cfgA)
		engB, errB = New(th, sys, cfgB)
	})
	sch.Run()
	if errA != nil || errB != nil {
		t.Fatalf("boot: %v / %v", errA, errB)
	}
	_ = engB // s1 stays idle the whole scenario

	// Phase 1: s0 inserts, machine crashes.
	run := sim.New(22)
	run.CrashAtEvent(60_000)
	sys.SetScheduler(run)
	engA.SpawnPersistence(0)
	completed := uint64(0)
	run.Spawn("w", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); ; i++ {
			engA.Execute(th, 0, uc.Insert(i, i+1))
			completed = i + 1
		}
	})
	run.Run()
	if !run.Frozen() {
		t.Fatal("phase 1 finished without crashing")
	}

	// Recover ONLY s0 — shard s1 stays down across the next crash, exactly
	// the partial-recovery shape of the sharded deployment.
	recSch := sim.New(23)
	recSys := sys.Recover(recSch)
	var recA *PREP
	var repA *RecoveryReport
	recSch.Spawn("recover", 0, 0, func(th *sim.Thread) {
		recA, repA, errA = Recover(th, recSys, cfgA)
	})
	recSch.Run()
	if errA != nil {
		t.Fatalf("recover: %v", errA)
	}
	if repA.SourceGeneration != 0 {
		t.Fatalf("first recovery source = %d, want 0", repA.SourceGeneration)
	}

	// Phase 2: only s0 runs again on the recovered machine; second crash.
	run2 := sim.New(24)
	run2.CrashAtEvent(60_000)
	recSys.SetScheduler(run2)
	recA.SpawnPersistence(0)
	completed2 := uint64(0)
	run2.Spawn("w", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); ; i++ {
			recA.Execute(th, 0, uc.Insert(i, i+1))
			completed2 = i + 1
		}
	})
	_ = completed2
	run2.Run()

	// Second recovery: s0 sources its bumped generation while s1 — finally
	// recovered after sitting out a whole crash cycle — still sources its
	// original generation 0. The two lineages never interact.
	recSch2 := sim.New(25)
	recSys2 := recSys.Recover(recSch2)
	var recA2, recB2 *PREP
	var repA2, repB2 *RecoveryReport
	recSch2.Spawn("recover2", 0, 0, func(th *sim.Thread) {
		recA2, repA2, errA = Recover(th, recSys2, recA.cfg)
		recB2, repB2, errB = Recover(th, recSys2, cfgB)
	})
	recSch2.Run()
	if errA != nil || errB != nil {
		t.Fatalf("second recover: %v / %v", errA, errB)
	}
	if repA2.SourceGeneration != 1 || repB2.SourceGeneration != 0 {
		t.Errorf("source generations = s0:%d s1:%d, want s0:1 s1:0",
			repA2.SourceGeneration, repB2.SourceGeneration)
	}
	// s0's completed phase-1 prefix must still be present after two crashes;
	// s1 must still be empty.
	check := sim.New(26)
	recSys2.SetScheduler(check)
	check.Spawn("inspect", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); i < completed; i++ {
			if got := recA2.Execute(th, 0, uc.Get(i)); got != i+1 {
				t.Errorf("s0 lost key %d across double crash", i)
			}
		}
		if got := recB2.Execute(th, 0, uc.Size()); got != 0 {
			t.Errorf("idle instance s1 recovered %d entries, want 0", got)
		}
	})
	check.Run()
}
