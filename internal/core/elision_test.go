package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// runStaggered runs fn for each listed worker WITHOUT the persistence
// thread, like runBare, but starts each worker at its own virtual clock so a
// test can force strict ordering between combiners on different nodes (the
// second combiner then catches up over the first one's already-persisted
// entries — the durable path's elision case).
func runStaggered(w *world, tids []int, starts []uint64, fn func(th *sim.Thread, tid int)) {
	sch := sim.New(w.seed + 500)
	w.sys.SetScheduler(sch)
	for i, tid := range tids {
		tid := tid
		node := w.p.cfg.Topology.NodeOf(tid)
		sch.Spawn("worker", node, starts[i], func(th *sim.Thread) { fn(th, tid) })
	}
	sch.Run()
}

// TestDurableElisionExactCounts pins the Durable combine path's flush
// accounting with elision on, at exact counts (mirroring the 2-fence test
// style above). Worker A (node 0) completes one insert before worker B
// (node 1) starts; B's combiner catch-up (applyLog) re-flushes A's log entry
// line, which A already flushed and fenced — the one clean-line flush the
// substrate elides here.
//
// Per single-op durable combine: 2 tracked FlushLines (args, full mark — the
// full-mark store re-dirties the line after the first fence persisted it),
// 2 fences, 1 sync flush of the CASed (dirty) completedTail line. B adds one
// catch-up FlushLine of A's entry line: clean ⇒ elided.
func TestDurableElisionExactCounts(t *testing.T) {
	cfg := hashCfg(Durable, 8, 256, 64) // 8 workers: tids 0 and 4 sit on different nodes
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 21}, 5)
	base := w.p.Stats()
	runStaggered(w, []int{0, 4}, []uint64{0, 200_000}, func(th *sim.Thread, tid int) {
		w.p.Execute(th, tid, uc.Insert(uint64(tid), 1))
	})
	d := w.p.Stats().Sub(base)
	if d.CombinerAcquisitions != 2 || d.CombinedOps != 2 {
		t.Fatalf("combines = %d (%d ops), want 2 batches of 1", d.CombinerAcquisitions, d.CombinedOps)
	}
	if d.FlushAsync != 4 || d.FlushSync != 2 {
		t.Errorf("flush_async=%d flush_sync=%d, want 4,2", d.FlushAsync, d.FlushSync)
	}
	if d.FlushesElided != 1 {
		t.Errorf("flushes_elided = %d, want exactly 1 (B's catch-up over A's clean entry)", d.FlushesElided)
	}
	if d.FlushElisionChecks != 7 {
		t.Errorf("flush_elision_checks = %d, want 7 (every flush request consulted)", d.FlushElisionChecks)
	}
	if d.Fences != 4 {
		t.Errorf("fences = %d, want 4", d.Fences)
	}
}

// TestDurableBatchElisionExactCounts pins the same accounting on the
// ExecuteBatch path, and checks the delta bookkeeping against a reference
// no-elision run of the identical workload: the elided count is exactly the
// extra FlushAsync the reference mode pays, and the persisted object state
// is identical in both modes.
func TestDurableBatchElisionExactCounts(t *testing.T) {
	const k = 5 // ops per batch; 3 batches of k stay below ε=64
	run := func(noElide bool) (d struct {
		async, sync, elided, checks uint64
	}, size uint64) {
		cfg := hashCfg(Durable, 8, 256, 64)
		w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts(), Seed: 22}, 6)
		w.sys.SetFlushElision(!noElide)
		base := w.p.Stats()
		ops := func(tid int) []uc.Op {
			out := make([]uc.Op, k)
			for i := range out {
				out[i] = uc.Insert(uint64(tid)<<32|uint64(i), uint64(i))
			}
			return out
		}
		// A batch on node 0, then (strictly later) one on node 1, then one
		// more on node 0 — the node-1 combiner catches up over A's k entries,
		// and the second node-0 combiner over the node-1 batch's k entries.
		runStaggered(w, []int{0, 4, 1}, []uint64{0, 200_000, 400_000}, func(th *sim.Thread, tid int) {
			w.p.ExecuteBatch(th, tid, ops(tid), make([]uint64, k))
		})
		delta := w.p.Stats().Sub(base)
		d.async, d.sync = delta.FlushAsync, delta.FlushSync
		d.elided, d.checks = delta.FlushesElided, delta.FlushElisionChecks
		w.query(func(th *sim.Thread) { size = w.p.Execute(th, 0, uc.Size()) })
		return d, size
	}

	on, sizeOn := run(false)
	off, sizeOff := run(true)

	// Elision on: per batch 2k tracked flushes + 1 sync; the 2nd and 3rd
	// combiners each elide k clean catch-up flushes.
	if on.async != 3*2*k || on.sync != 3 {
		t.Errorf("elision on: flush_async=%d flush_sync=%d, want %d,3", on.async, on.sync, 3*2*k)
	}
	if on.elided != 2*k {
		t.Errorf("elision on: flushes_elided=%d, want %d", on.elided, 2*k)
	}
	if on.checks != 3*(2*k+1)+2*k {
		t.Errorf("elision on: checks=%d, want %d", on.checks, 3*(2*k+1)+2*k)
	}
	// Reference mode: zero elision accounting; the catch-up flushes land in
	// flush_async instead, so flushes_elided accounts exactly for the delta.
	if off.elided != 0 || off.checks != 0 {
		t.Errorf("elision off: elided=%d checks=%d, want 0,0", off.elided, off.checks)
	}
	if off.async != on.async+on.elided {
		t.Errorf("flush_async off=%d, want on(%d) + elided(%d)", off.async, on.async, on.elided)
	}
	if off.sync != on.sync {
		t.Errorf("flush_sync off=%d on=%d, want equal", off.sync, on.sync)
	}
	if sizeOn != 3*k || sizeOff != 3*k {
		t.Errorf("object size on=%d off=%d, want %d", sizeOn, sizeOff, 3*k)
	}
}
