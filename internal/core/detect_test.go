package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// detectCfg is hashCfg with operation descriptors on.
func detectCfg(mode Mode, workers int, logSize, eps uint64) Config {
	cfg := hashCfg(mode, workers, logSize, eps)
	cfg.Detect = true
	return cfg
}

// invidOf gives each (worker, index) pair a unique nonzero invocation id.
func invidOf(tid int, i uint64) uint64 { return uint64(tid+1)<<32 | (i + 1) }

// TestDetectDurableDescriptorCost pins the tentpole's cost claim at the
// counter level: in Durable mode each detectable update writes and flushes
// exactly one descriptor, and the batch fence count is unchanged from the
// legacy combiner — two per batch (metrics_test pins the same bound with
// descriptors off) — because the descriptor flushes share the fence the
// entry args already needed.
func TestDetectDurableDescriptorCost(t *testing.T) {
	cfg := detectCfg(Durable, 1, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 11}, 1)
	base := w.p.Stats()
	const ops = 5
	runBare(w, 1, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < ops; i++ {
			op := uc.Insert(i, i)
			op.Invid = invidOf(tid, i)
			w.p.Execute(th, tid, op)
		}
		// A non-detectable update and a read cost no descriptor traffic.
		w.p.Execute(th, tid, uc.Insert(100, 100))
		w.p.Execute(th, tid, uc.Get(0))
	})
	d := w.p.Stats().Sub(base)
	if d.DescriptorWrites != ops {
		t.Errorf("descriptor writes = %d for %d detectable updates, want %d",
			d.DescriptorWrites, ops, ops)
	}
	if d.DescriptorFlushes != ops {
		t.Errorf("descriptor flushes = %d, want exactly %d (one line per detectable update)",
			d.DescriptorFlushes, ops)
	}
	// ops+1 single-op batches (the read combines nothing): two fences each,
	// same as the legacy path.
	if d.Fences != 2*(ops+1) {
		t.Errorf("fences = %d over %d single-op update batches, want %d (zero extra for detection)",
			d.Fences, ops+1, 2*(ops+1))
	}
}

// TestDetectBufferedVolatileFlushFree pins the other half of the cost
// claim: Buffered descriptors ride the checkpoint WBINVD (no per-line
// flushes), and Volatile detection costs no persistence traffic at all.
func TestDetectBufferedVolatileFlushFree(t *testing.T) {
	const ops = 6
	for _, tc := range []struct {
		name string
		mode Mode
		eps  uint64
	}{
		{"Buffered", Buffered, 64},
		{"Volatile", Volatile, 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := detectCfg(tc.mode, 1, 256, tc.eps)
			w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 13}, 3)
			base := w.p.Stats()
			runBare(w, 1, func(th *sim.Thread, tid int) {
				for i := uint64(0); i < ops; i++ {
					op := uc.Insert(i, i)
					op.Invid = invidOf(tid, i)
					w.p.Execute(th, tid, op)
				}
			})
			d := w.p.Stats().Sub(base)
			if d.DescriptorWrites != ops {
				t.Errorf("descriptor writes = %d, want %d", d.DescriptorWrites, ops)
			}
			if d.DescriptorFlushes != 0 {
				t.Errorf("descriptor flushes = %d in %s mode, want 0", d.DescriptorFlushes, tc.name)
			}
			if tc.mode == Volatile {
				if d.Flushes != 0 || d.Fences != 0 || d.WBINVDs != 0 {
					t.Errorf("volatile detection issued persistence traffic: flushes=%d fences=%d wbinvds=%d",
						d.Flushes, d.Fences, d.WBINVDs)
				}
			}
		})
	}
}

// detectWorld runs a detectable durable/buffered workload to a crash and
// materializes the post-crash state. Every operation inserts a unique key,
// so the recovered state answers per-invocation "did my effect survive"
// through one Get.
type detectWorld struct {
	cfg       Config
	base      *nvm.System
	completed []uint64 // per worker: ops whose Execute returned pre-crash
	submitted []uint64 // per worker: ops whose Execute was entered
}

func newDetectWorld(t *testing.T, mode Mode, seed int64, crashAt uint64) *detectWorld {
	t.Helper()
	cfg := detectCfg(mode, 4, 128, 16)
	cfg.HeapWords = 1 << 13
	const workers = 4
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 64, Seed: uint64(seed)}, seed)
	dw := &detectWorld{cfg: cfg,
		completed: make([]uint64, workers), submitted: make([]uint64, workers)}
	sch := w.runWorkers(workers, crashAt, func(th *sim.Thread, tid int) {
		for i := uint64(0); ; i++ {
			op := uc.Insert(workerKey(tid, i), workerKey(tid, i))
			op.Invid = invidOf(tid, i)
			dw.submitted[tid] = i + 1
			w.p.Execute(th, tid, op)
			dw.completed[tid] = i + 1
		}
	})
	if !sch.Frozen() {
		t.Fatal("workload finished without crashing; raise crashAt")
	}
	dw.base = w.sys.Recover(sim.New(seed + 5000))
	return dw
}

// corroborate asserts the detectability contract between a resolved map and
// the recovered state: every submitted invocation id resolves committed if
// and only if its (unique) key is present, and committed results carry the
// fresh-key insert's return value. ids never submitted must be absent.
func (dw *detectWorld) corroborate(t *testing.T, sys *nvm.System, rec *PREP, resolved map[uint64]uint64, seed int64) {
	t.Helper()
	sch := sim.New(seed)
	sys.SetScheduler(sch)
	sch.Spawn("probe", 0, 0, func(th *sim.Thread) {
		for tid := range dw.submitted {
			for i := uint64(0); i < dw.submitted[tid]+8; i++ {
				invid := invidOf(tid, i)
				res, committed := resolved[invid]
				if i >= dw.submitted[tid] {
					if committed {
						t.Errorf("worker %d op %d: never submitted but resolved committed", tid, i)
					}
					continue
				}
				present := rec.Execute(th, 0, uc.Get(workerKey(tid, i))) != uc.NotFound
				if committed != present {
					t.Errorf("worker %d op %d: verdict committed=%v but key present=%v",
						tid, i, committed, present)
				}
				if committed && res != 1 {
					t.Errorf("worker %d op %d: resolved result %#x, want 1 (fresh-key insert)",
						tid, i, res)
				}
			}
		}
	})
	sch.Run()
}

// TestDetectCrashResolution is the tentpole's core acceptance: after a
// crash, recovery's resolved map answers completed-with-result or
// never-applied for EVERY submitted invocation id, and the recovered state
// corroborates each verdict. In Durable mode the map must additionally
// cover every operation whose Execute returned (persist-before-respond);
// Buffered mode may lose a completed suffix, but verdict↔state agreement
// is unconditional.
func TestDetectCrashResolution(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"Durable", Durable}, {"Buffered", Buffered}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const seed = 211
			dw := newDetectWorld(t, tc.mode, seed, 9000)
			sys := dw.base.Clone(sim.New(seed + 1))
			rec, rep, _ := recoverOn(t, sys, dw.cfg, seed+1, 0)
			if rec == nil {
				t.Fatal("recovery failed")
			}
			if rep.Resolved == nil {
				t.Fatal("detectable recovery returned no resolved map")
			}
			if tc.mode == Durable {
				for tid := range dw.completed {
					for i := uint64(0); i < dw.completed[tid]; i++ {
						if _, ok := rep.Resolved[invidOf(tid, i)]; !ok {
							t.Fatalf("worker %d op %d completed pre-crash but is not resolved committed", tid, i)
						}
					}
				}
			}
			dw.corroborate(t, sys, rec, rep.Resolved, seed+2)
		})
	}
}

// TestDetectDoubleRecoveryIdempotent: recovering a second time — the first
// recovery committed a new generation carrying the verdicts forward — must
// reproduce the identical resolved map, so a client that crashes during its
// own post-recovery dedup can simply ask again.
func TestDetectDoubleRecoveryIdempotent(t *testing.T) {
	const seed = 223
	dw := newDetectWorld(t, Durable, seed, 9000)
	sys := dw.base.Clone(sim.New(seed + 1))
	rec1, rep1, _ := recoverOn(t, sys, dw.cfg, seed+1, 0)
	if rec1 == nil {
		t.Fatal("first recovery failed")
	}
	if rep1.DescriptorsCarried != uint64(len(rep1.Resolved)) {
		t.Errorf("carried %d descriptors, resolved %d verdicts; every verdict must be carried",
			rep1.DescriptorsCarried, len(rep1.Resolved))
	}
	// Crash the machine again without running any workload: the second
	// recovery reads the carried descriptors of the new generation.
	after := sys.Recover(sim.New(seed + 2))
	rec2, rep2, _ := recoverOn(t, after, dw.cfg, seed+2, 0)
	if rec2 == nil {
		t.Fatal("second recovery failed")
	}
	assertSameResolved(t, rep1.Resolved, rep2.Resolved)
	dw.corroborate(t, after, rec2, rep2.Resolved, seed+3)
}

// TestDetectNestedCrashResolutionSweep crashes recovery itself at a stride
// of event indices and re-recovers: whatever the nested crash destroyed,
// the verdict map must come back identical to the uncrashed baseline's.
// (TestCrashSweepInsideRecovery sweeps every index for state durability;
// the stride here keeps the detectable variant proportionate.)
func TestDetectNestedCrashResolutionSweep(t *testing.T) {
	const seed = 227
	dw := newDetectWorld(t, Durable, seed, 9000)

	probe := dw.base.Clone(sim.New(seed + 1))
	rec0, rep0, _ := recoverOn(t, probe, dw.cfg, seed+1, 0)
	if rec0 == nil {
		t.Fatal("baseline recovery failed")
	}
	events := probe.Scheduler().Events()
	stride := events / 24
	if stride == 0 {
		stride = 1
	}
	for k := uint64(1); k <= events; k += stride {
		trial := dw.base.Clone(sim.New(seed + 1)) // same seed: identical schedule
		_, _, frozen := recoverOn(t, trial, dw.cfg, seed+1, k)
		if !frozen {
			t.Fatalf("crash-at=%d: recovery completed before the armed crash", k)
		}
		after := trial.Recover(sim.New(seed + 2))
		rec2, rep2, _ := recoverOn(t, after, dw.cfg, seed+2, 0)
		if rec2 == nil {
			t.Fatalf("crash-at=%d: second recovery failed", k)
		}
		assertSameResolved(t, rep0.Resolved, rep2.Resolved)
		dw.corroborate(t, after, rec2, rep2.Resolved, seed+3)
	}
}

func assertSameResolved(t *testing.T, want, got map[uint64]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("resolved %d invocation ids, want %d", len(got), len(want))
	}
	for id, r := range want {
		if g, ok := got[id]; !ok || g != r {
			t.Fatalf("invid %#x: resolved (%#x,%v), want (%#x,true)", id, g, ok, r)
		}
	}
}

// TestTornDescriptorRewriteCannotLie evicts a descriptor line after every
// store (BGFlushOneIn: 1 writes each one back at once) and crashes a slot's
// reuse after each of its four stores, over a descLive and over a
// descResolved previous occupant, rewritten by write and by carry. Under a
// horizon that admits every live record — the worst case — the persisted
// slot must never name the new invocation before its last store, and must
// carry its own result once it does.
func TestTornDescriptorRewriteCannotLie(t *testing.T) {
	const oldID, newID, oldRes, newRes = 7, 9, 111, 222
	const horizon = ^uint64(0)
	for _, prev := range []uint64{descLive, descResolved} {
		for _, rewrite := range []uint64{descLive, descResolved} {
			for stores := uint64(0); stores <= 4; stores++ {
				sch := sim.New(1)
				sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 1})
				mem := sys.NewMemory("desc", nvm.NVM, nvm.Interleaved, descTableWords(1))
				d := newDescTable(mem, 1)
				put := func(th *sim.Thread, flags, invid, logpos, res uint64) {
					if flags == descResolved {
						d.carry(th, 0, invid, res)
					} else {
						d.write(th, 0, invid, logpos, res)
					}
				}
				sch.Spawn("combiner", 0, 0, func(th *sim.Thread) {
					put(th, prev, oldID, 3, oldRes)
					for i := uint64(1); i < DescSlots; i++ { // the worker's window laps the table
						put(th, descLive, 100+i, 3+i, 0)
					}
					// The (stores+1)-th Step from here is the crash: Store steps
					// before it writes, so exactly `stores` stores land.
					sch.CrashAtEvent(sch.Events() + stores + 1)
					put(th, rewrite, newID, 3+DescSlots, newRes)
				})
				sch.Run()
				if !sch.Frozen() && stores < 4 {
					t.Fatalf("prev=%d rewrite=%d stores=%d: no crash", prev, rewrite, stores)
				}
				resolved, _ := scanDescriptors(mem, 1, horizon)
				res, named := resolved[newID]
				switch {
				case stores < 4 && named:
					t.Errorf("prev=%d rewrite=%d: new id committed (result %d) after %d of 4 stores",
						prev, rewrite, res, stores)
				case stores == 4 && (!named || res != newRes):
					t.Errorf("prev=%d rewrite=%d: complete record reads (%d, %v), want (%d, true)",
						prev, rewrite, res, named, newRes)
				}
			}
		}
	}
}
