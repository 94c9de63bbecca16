package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// runBare runs fn per worker on a fresh scheduler WITHOUT spawning the
// persistence thread, so every persistence instruction in the counter delta
// is attributable to the combiner protocol alone. Total log growth must stay
// at or below ε or the workers block on the flush boundary forever.
func runBare(w *world, workers int, fn func(th *sim.Thread, tid int)) {
	sch := sim.New(w.seed + 500)
	w.sys.SetScheduler(sch)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		node := w.p.cfg.Topology.NodeOf(tid)
		sch.Spawn("worker", node, 0, func(th *sim.Thread) { fn(th, tid) })
	}
	sch.Run()
}

// TestDurableFencesPerBatch pins the §4.1 flush protocol's fence count: each
// combined batch costs exactly two SFENCEs (one after the argument flushes,
// one after the emptyBit flushes and replay), regardless of batch size, and
// persisting completedTail uses a synchronous flush, not a fence.
func TestDurableFencesPerBatch(t *testing.T) {
	cfg := hashCfg(Durable, 1, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 11}, 1)
	base := w.p.Stats()
	const ops = 3
	runBare(w, 1, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < ops; i++ {
			w.p.Execute(th, tid, uc.Insert(i, i))
		}
	})
	d := w.p.Stats().Sub(base)
	// A single worker combines each of its own operations: ops batches of 1.
	if d.CombinerAcquisitions != ops || d.CombinedOps != ops {
		t.Fatalf("combines = %d (%d ops), want %d batches of 1",
			d.CombinerAcquisitions, d.CombinedOps, ops)
	}
	if d.Fences != 2*ops {
		t.Errorf("fences = %d for %d single-op batches, want exactly %d",
			d.Fences, ops, 2*ops)
	}
	if d.WBINVDs != 0 {
		t.Errorf("WBINVDs = %d without a persistence thread, want 0", d.WBINVDs)
	}
}

// TestDurableFencesManyWorkers checks the same invariant under contention,
// where batch sizes are scheduling-dependent: fences stay exactly twice the
// number of combined batches however the k operations group.
func TestDurableFencesManyWorkers(t *testing.T) {
	const workers = 4
	cfg := hashCfg(Durable, workers, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 12}, 2)
	base := w.p.Stats()
	runBare(w, workers, func(th *sim.Thread, tid int) {
		w.p.Execute(th, tid, uc.Insert(uint64(tid), 1))
	})
	d := w.p.Stats().Sub(base)
	if d.CombinedOps != workers {
		t.Fatalf("combined ops = %d, want %d", d.CombinedOps, workers)
	}
	if d.CombinerAcquisitions == 0 || d.CombinerAcquisitions > workers {
		t.Fatalf("combiner acquisitions = %d, want 1..%d", d.CombinerAcquisitions, workers)
	}
	if d.Fences != 2*d.CombinerAcquisitions {
		t.Errorf("fences = %d over %d batches, want exactly %d",
			d.Fences, d.CombinerAcquisitions, 2*d.CombinerAcquisitions)
	}
}

// TestVolatileZeroPersistenceTraffic pins the Volatile mode's zero-cost
// claim at the counter level: PREP-V issues no flush, fence, or WBINVD at
// all — the persistence machinery is absent, not merely idle.
func TestVolatileZeroPersistenceTraffic(t *testing.T) {
	const workers = 4
	cfg := hashCfg(Volatile, workers, 256, 0)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 13}, 3)
	base := w.p.Stats()
	runBare(w, workers, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 50; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)<<32|i, i))
			w.p.Execute(th, tid, uc.Get(uint64(tid)<<32))
		}
	})
	d := w.p.Stats().Sub(base)
	if d.Updates != workers*50 || d.Reads != workers*50 {
		t.Fatalf("updates=%d reads=%d, want %d each", d.Updates, d.Reads, workers*50)
	}
	if d.Flushes != 0 || d.FlushAsync != 0 || d.FlushSync != 0 {
		t.Errorf("flushes = %d (async %d, sync %d) in Volatile mode, want 0",
			d.Flushes, d.FlushAsync, d.FlushSync)
	}
	if d.Fences != 0 || d.WBINVDs != 0 || d.BGFlushes != 0 {
		t.Errorf("fences=%d wbinvds=%d bgflushes=%d in Volatile mode, want 0",
			d.Fences, d.WBINVDs, d.BGFlushes)
	}
}
