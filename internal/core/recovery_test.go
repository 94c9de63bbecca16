package core

import (
	"fmt"
	"testing"

	"prepuc/internal/linearize"
	"prepuc/internal/nvm"
	"prepuc/internal/oplog"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// sweepCfg is deliberately tiny: the nested-crash sweep reruns recovery once
// per recovery event index, so total work is quadratic in the recovery event
// count. One NUMA node, a small heap and a short workload keep the full
// stride-1 sweep to a few million simulated events.
func sweepCfg(mode Mode, detect bool) Config {
	cfg := hashCfg(mode, 4, 128, 16)
	cfg.HeapWords = 1 << 13
	cfg.Detect = detect
	return cfg
}

// sweepRows is the nested-crash table: every persistent mode, with and
// without the descriptor table. Buffered with Detect is the row whose first
// NVM region of a generation is the descriptor table (its log is volatile),
// which a free-generation rule probing for named roles overlooked.
var sweepRows = []struct {
	name   string
	mode   Mode
	detect bool
}{
	{"durable", Durable, false},
	{"durable-detect", Durable, true},
	{"buffered", Buffered, false},
	{"buffered-detect", Buffered, true},
}

// workerKey is worker tid's i-th key of the insert workload.
func workerKey(tid int, i uint64) uint64 { return uint64(tid)<<32 | i }

// sweepWorld runs cfg's workload to a crash and materializes the
// post-crash NVM state once. Sweep harnesses Clone it per crash point, so
// every sweep iteration recovers the exact same machine.
type sweepWorld struct {
	cfg  Config
	base *nvm.System // materialized post-crash state (scheduler drained)
	ops  []linearize.Op
}

func newSweepWorld(t *testing.T, cfg Config, seed int64, crashAt uint64) *sweepWorld {
	t.Helper()
	const workers = 4
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 64, Seed: uint64(seed)}, seed)
	hist := linearize.NewRecorder(workers)
	sch := w.runWorkers(workers, crashAt, func(th *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			op := uc.Insert(workerKey(tid, i), workerKey(tid, i))
			op.Invid = invidOf(tid, i) // ignored unless cfg.Detect
			hist.Exec(th, tid, op, func() uint64 { return w.p.Execute(th, tid, op) })
		}
	})
	if !sch.Frozen() {
		t.Fatal("workload finished without crashing; raise crashAt")
	}
	return &sweepWorld{cfg: cfg, base: w.sys.Recover(sim.New(seed + 5000)), ops: hist.Ops()}
}

// recoverOn runs core.Recover on sys with a fresh scheduler, optionally
// arming a crash at event index crashAt. Returns the engine (nil if the run
// crashed or Recover panicked walking corrupt state), the report, and
// whether the scheduler froze.
func recoverOn(t *testing.T, sys *nvm.System, cfg Config, seed int64, crashAt uint64) (rec *PREP, rep *RecoveryReport, frozen bool) {
	t.Helper()
	sch := sim.New(seed)
	if crashAt != 0 {
		sch.CrashAtEvent(crashAt)
	}
	sys.SetScheduler(sch)
	var err error
	sch.Spawn("recover", 0, 0, func(th *sim.Thread) {
		defer func() {
			if r := recover(); r != nil {
				if sim.Crashed(r) {
					panic(r) // unwind normally; sch.Frozen() records it
				}
				rec, err = nil, fmt.Errorf("recovery panicked: %v", r)
			}
		}()
		rec, rep, err = Recover(th, sys, cfg)
	})
	sch.Run()
	if sch.Frozen() {
		return nil, nil, true
	}
	if err != nil {
		t.Logf("Recover: %v", err)
		return nil, nil, false
	}
	return rec, rep, false
}

// probeDurable checks the recorded pre-crash history against the recovered
// engine under cfg's condition: strict durable, or buffered durable with the
// ε+β−1 loss allowance. The probe reads every invoked key and 16 past each
// worker's last. Probing may panic if recovery rebuilt corrupt state; the
// caller sees that as a nil-engine failure instead.
func probeDurable(t *testing.T, sys *nvm.System, rec *PREP, cfg Config, ops []linearize.Op, seed int64) linearize.Result {
	t.Helper()
	invoked := map[int]uint64{}
	for _, op := range ops {
		invoked[op.Client]++
	}
	state := map[uint64]uint64{}
	sch := sim.New(seed)
	sys.SetScheduler(sch)
	sch.Spawn("inspect", 0, 0, func(th *sim.Thread) {
		for tid := 0; tid < len(invoked); tid++ {
			for i := uint64(0); i < invoked[tid]+16; i++ {
				if got := rec.Execute(th, 0, uc.Get(workerKey(tid, i))); got != uc.NotFound {
					state[workerKey(tid, i)] = got
				}
			}
		}
	})
	sch.Run()
	opt := linearize.Options{}
	if cfg.Mode == Buffered {
		opt = linearize.Options{Buffered: true, Allowance: int(cfg.Epsilon) + cfg.Topology.ThreadsPerNode - 1}
	}
	return linearize.CheckEpoch(linearize.SetModel(), nil, ops, state, opt)
}

// TestCrashSweepInsideRecovery crashes recovery at EVERY event index, in every
// persistent mode with and without descriptors, and follows each crash with a
// second recovery that must satisfy the mode's correctness condition. Recover
// passes the whole sweep because the source generation is never written and
// the generation it builds into is one no earlier attempt touched: however
// much of the new generation the nested crash destroys, the second attempt
// reads the same committed state. The durable rows need a non-trivial replay
// window to mean anything.
func TestCrashSweepInsideRecovery(t *testing.T) {
	const seed = 101
	for _, row := range sweepRows {
		t.Run(row.name, func(t *testing.T) {
			sw := newSweepWorld(t, sweepCfg(row.mode, row.detect), seed, 9000)

			// Establish the sweep ceiling and sanity-check the scenario on an
			// uncrashed clone.
			probe := sw.base.Clone(sim.New(seed + 1))
			rec0, rep0, _ := recoverOn(t, probe, sw.cfg, seed+1, 0)
			if rec0 == nil {
				t.Fatal("baseline recovery failed")
			}
			if row.mode == Durable && rep0.Replayed == 0 {
				t.Fatalf("replay window is trivial (stable tail %d = completed tail %d); re-tune the workload",
					rep0.StableLocalTail, rep0.CompletedTail)
			}
			events := probe.Scheduler().Events()
			t.Logf("recovery spans %d events, replayed %d ops (window [%d,%d))",
				events, rep0.Replayed, rep0.StableLocalTail, rep0.CompletedTail)

			for k := uint64(1); k <= events; k++ {
				trial := sw.base.Clone(sim.New(seed + 1)) // same seed: identical schedule
				_, _, frozen := recoverOn(t, trial, sw.cfg, seed+1, k)
				if !frozen {
					t.Fatalf("crash-at=%d: recovery completed before the armed crash (nondeterministic schedule?)", k)
				}
				// Materialize the nested crash — unfenced lines resolved,
				// volatile memories gone — and recover from scratch.
				after := trial.Recover(sim.New(seed + 2))
				rec2, rep2, frozen2 := recoverOn(t, after, sw.cfg, seed+2, 0)
				if frozen2 {
					t.Fatalf("crash-at=%d: second recovery froze without an armed crash", k)
				}
				if rec2 == nil {
					t.Fatalf("crash-at=%d: second recovery failed", k)
				}
				if r := probeDurable(t, after, rec2, sw.cfg, sw.ops, seed+3); !r.OK {
					t.Fatalf("crash-at=%d: second recovery violates the mode's condition: %s (generations %d → %d)",
						k, r, rep2.SourceGeneration, rep2.Generation)
				}
			}
		})
	}
}

// buggyRecoverInPlace reproduces the pre-fix hazard this PR's recovery
// rewrite removed: durable log replay executed IN PLACE on the crashed
// generation's stable persistent heap. With background write-backs enabled,
// a crash mid-replay leaks an arbitrary subset of the partially replayed
// heap into its persisted view — and the stable heap was the only consistent
// copy, so the next recovery attempt starts from corrupt state.
func buggyRecoverInPlace(t *sim.Thread, recSys *nvm.System, cfg Config) {
	src, err := cfg.lineage().Source(recSys)
	if err != nil {
		panic(err)
	}
	meta := recSys.Memory(src.Name("meta"))
	active := meta.Load(t, metaActive)
	stable := 1 - active
	sheap := recSys.Memory(src.Name(fmt.Sprintf("pheap%d", stable)))
	salloc := pmem.Attach(t, sheap)
	sds := cfg.Attacher(t, salloc)
	stableTail := salloc.Root(t, pTailRootSlot)

	logMem := recSys.Memory(src.Name("log"))
	l := oplog.Attach(logMem, cfg.LogSize)
	for idx := stableTail; idx < l.PersistedCompletedTail(); idx++ {
		if !l.PersistedIsFull(idx) {
			continue
		}
		code, a0, a1 := l.PersistedReadEntry(idx)
		sds.Execute(t, code, a0, a1) // the bug: mutates the recovery source
	}
}

// TestInPlaceReplayFailsSweep demonstrates the pre-fix behaviour is actually
// broken: sweeping a crash across the in-place replay phase and re-running
// the (fixed) recovery afterwards must produce at least one durable-
// linearizability violation — the mutated stable heap corrupts the state the
// second attempt reads. This is the regression guard for the recovery
// rewrite; TestCrashSweepInsideRecovery shows the fixed path survives the
// same schedule.
func TestInPlaceReplayFailsSweep(t *testing.T) {
	const seed = 101
	sw := newSweepWorld(t, sweepCfg(Durable, false), seed, 9000)

	// Background flushes are the leak vector; make them aggressive during
	// the buggy replay so partially replayed lines hit the persisted view.
	sw.base.SetBGFlushOneIn(4)

	probe := sw.base.Clone(sim.New(seed + 1))
	probeSch := probe.Scheduler()
	probeSch.Spawn("buggy", 0, 0, func(th *sim.Thread) {
		buggyRecoverInPlace(th, probe, sw.cfg)
	})
	probeSch.Run()
	events := probeSch.Events()
	if events < 16 {
		t.Fatalf("in-place replay spans only %d events; scenario too small", events)
	}

	violations := 0
	for k := uint64(1); k <= events; k++ {
		trial := sw.base.Clone(sim.New(seed + 1))
		sch := trial.Scheduler()
		sch.CrashAtEvent(k)
		sch.Spawn("buggy", 0, 0, func(th *sim.Thread) {
			buggyRecoverInPlace(th, trial, sw.cfg)
		})
		sch.Run()
		if !sch.Frozen() {
			break
		}
		func() {
			defer func() {
				if recover() != nil {
					violations++ // recovery or probing walked corrupt state
				}
			}()
			after := trial.Recover(sim.New(seed + 2))
			rec2, _, frozen2 := recoverOn(t, after, sw.cfg, seed+2, 0)
			if frozen2 {
				t.Fatalf("crash-at=%d: second recovery froze without an armed crash", k)
			}
			if rec2 == nil {
				violations++
				return
			}
			if r := probeDurable(t, after, rec2, sw.cfg, sw.ops, seed+3); !r.OK {
				violations++
			}
		}()
	}
	if violations == 0 {
		t.Error("in-place replay survived the whole crash sweep; the regression scenario no longer exercises the hazard")
	} else {
		t.Logf("in-place replay produced %d violations across %d crash points", violations, events)
	}
}

// TestRecoveryRestartsCounted checks the free-generation scan: a crash
// inside recovery leaves a partial generation behind, and the next attempt
// must skip it, reporting the restart in both the report and the metrics
// registry — whichever region of the generation the crashed attempt got to
// create first.
func TestRecoveryRestartsCounted(t *testing.T) {
	const seed = 211
	for _, row := range sweepRows {
		// Two crash points inside the rebuild: one where the new generation
		// holds little more than its first region, one where it holds all.
		for _, crashAt := range []uint64{16, 2000} {
			t.Run(fmt.Sprintf("%s@%d", row.name, crashAt), func(t *testing.T) {
				sw := newSweepWorld(t, sweepCfg(row.mode, row.detect), seed, 9000)

				trial := sw.base.Clone(sim.New(seed + 1))
				if _, _, frozen := recoverOn(t, trial, sw.cfg, seed+1, crashAt); !frozen {
					t.Fatalf("recovery completed before event %d; nothing to restart", crashAt)
				}
				after := trial.Recover(sim.New(seed + 2))
				// The crashed attempt was building generation 1; it is abandoned
				// iff any of its NVM regions made it onto the machine (at event
				// 16 Buffered without descriptors has created none yet).
				want := uint64(0)
				if after.HasMemoryPrefix("g1.") {
					want = 1
				}
				base := after.Metrics().Snapshot()
				rec2, rep2, _ := recoverOn(t, after, sw.cfg, seed+2, 0)
				if rec2 == nil {
					t.Fatal("second recovery failed")
				}
				restarts := uint64(rep2.Generation - rep2.SourceGeneration - 1)
				if restarts != want {
					t.Errorf("restarts = %d (generations %d → %d), want %d", restarts, rep2.SourceGeneration, rep2.Generation, want)
				}
				if d := after.Metrics().Snapshot().Sub(base); d.RecoveryRestarts != restarts {
					t.Errorf("metrics recovery_restarts = %d, generations say %d", d.RecoveryRestarts, restarts)
				}
			})
		}
	}
}
