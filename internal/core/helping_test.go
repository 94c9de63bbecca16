package core

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// TestReaderHelpsWhenNoCombiner exercises the read-only helping path: after
// updates from node 0 complete, a reader on node 1 (whose replica is stale
// and has no active combiner) must catch the replica up itself.
func TestReaderHelpsWhenNoCombiner(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 8, 256, 0), nvm.Config{Costs: sim.UnitCosts()}, 301)
	// Phase 1: single worker on node 0 performs updates.
	w.runWorkers(1, 0, func(th *sim.Thread, tid int) {
		for k := uint64(0); k < 30; k++ {
			w.p.Execute(th, tid, uc.Insert(k, k))
		}
	})
	// Phase 2: a reader pinned to node 1 (tid 4 with β=4) reads; node 1's
	// replica has never been touched, so the reader must self-help.
	sch := sim.New(999)
	w.sys.SetScheduler(sch)
	sch.Spawn("reader", 1, 0, func(th *sim.Thread) {
		for k := uint64(0); k < 30; k++ {
			if got := w.p.Execute(th, 4, uc.Get(k)); got != k {
				t.Errorf("reader on stale node: get(%d) = %d", k, got)
			}
		}
	})
	sch.Run()
}

// TestCrossNodeHelpWhenNodeQuiescent forces the log to wrap while node 1 is
// completely idle; node 0's combiners must help node 1's replica directly or
// the run deadlocks (caught by the test timeout).
func TestCrossNodeHelpWhenNodeQuiescent(t *testing.T) {
	cfg := hashCfg(Volatile, 8, 32, 0) // tiny log: wraps constantly
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 302)
	// First touch node 1's replica so it exists and is behind, then go idle.
	w.runWorkers(8, 0, func(th *sim.Thread, tid int) {
		if tid >= 4 { // node 1 workers do one op then stop
			w.p.Execute(th, tid, uc.Insert(9999+uint64(tid), 1))
			return
		}
		for i := uint64(0); i < 200; i++ { // node 0 wraps the log many times
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	if w.p.Stats().CrossNodeHelps == 0 {
		t.Log("note: run completed without cross-node helps (updateReplicaNow sufficed)")
	}
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != 4*200+4 {
			t.Errorf("size = %d, want %d", got, 4*200+4)
		}
	})
}

// TestBoundaryReductionUnblocksStablePReplica uses a log barely larger than
// ε so the stable persistent replica pins logMin; combiners must reduce the
// flush boundary to force a persistence cycle.
func TestBoundaryReductionUnblocksStablePReplica(t *testing.T) {
	cfg := hashCfg(Buffered, 8, 64, 32)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 303)
	w.runWorkers(8, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 100; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	// The run completing at all (log of 64, 800 updates, two p-replicas)
	// proves the unblocking machinery works; check the state too.
	w.query(func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != 800 {
			t.Errorf("size = %d, want 800", got)
		}
	})
	if w.p.Stats().PersistCycles == 0 {
		t.Error("no persistence cycles on a wrapping log")
	}
}

// TestBatchingCollectsConcurrentOps verifies flat combining actually
// batches: with many workers per node, the average combine must cover more
// than one operation.
func TestBatchingCollectsConcurrentOps(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 8, 1024, 0), nvm.Config{Costs: sim.UnitCosts()}, 304)
	w.runWorkers(8, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 100; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	st := w.p.Stats()
	if st.CombinerAcquisitions == 0 {
		t.Fatal("no combines recorded")
	}
	avg := float64(st.CombinedOps) / float64(st.CombinerAcquisitions)
	if avg <= 1.05 {
		t.Errorf("average batch size %.2f; flat combining is not batching", avg)
	}
}

// TestNoBatchingAblationBatchesExactlyOne checks the ablation switch.
func TestNoBatchingAblationBatchesExactlyOne(t *testing.T) {
	cfg := hashCfg(Volatile, 8, 1024, 0)
	cfg.NoBatching = true
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 305)
	w.runWorkers(8, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 50; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	st := w.p.Stats()
	if st.CombinedOps != st.CombinerAcquisitions {
		t.Errorf("no-batching: %d ops over %d combines; want 1:1", st.CombinedOps, st.CombinerAcquisitions)
	}
}

// TestPersistenceThreadTracksCompletedTail verifies the persistence thread
// keeps the active persistent replica within the flush window of the log.
func TestPersistenceThreadTracksCompletedTail(t *testing.T) {
	cfg := hashCfg(Buffered, 4, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 306)
	w.runWorkers(4, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 150; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	// After a clean run both p-replica states must replay-match the full
	// update set: crash (cleanly, everything quiesced) and recover.
	recSch := sim.New(307)
	recSys := w.sys.Recover(recSch)
	var rec *PREP
	var err error
	recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
		rec, _, err = Recover(th, recSys, cfg)
	})
	recSch.Run()
	if err != nil {
		t.Fatal(err)
	}
	sch := sim.New(308)
	recSys.SetScheduler(sch)
	sch.Spawn("chk", 0, 0, func(th *sim.Thread) {
		size := rec.Execute(th, 0, uc.Size())
		// Buffered: at most ε+β−1 of the 600 updates may be missing even on
		// a clean shutdown (the tail may not have been checkpointed).
		min := uint64(600) - (cfg.Epsilon + uint64(testTopo().ThreadsPerNode) - 1)
		if size < min || size > 600 {
			t.Errorf("recovered size %d outside [%d, 600]", size, min)
		}
	})
	sch.Run()
}

// TestVolatileModeHasNoPersistentMachinery ensures PREP-V allocates neither
// NVM memories nor a persistence thread dependency.
func TestVolatileModeHasNoPersistentMachinery(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 4, 256, 0), nvm.Config{Costs: sim.UnitCosts()}, 309)
	if w.p.meta != nil || len(w.p.preps) != 0 {
		t.Error("volatile engine built persistent replicas")
	}
	if w.sys.Metrics().Snapshot().WBINVDs != 0 {
		t.Error("volatile engine executed WBINVD")
	}
	// And spawning the persistence loop must panic.
	sch := sim.New(310)
	w.sys.SetScheduler(sch)
	panicked := false
	sch.Spawn("p", 0, 0, func(th *sim.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		w.p.PersistenceLoop(th)
	})
	sch.Run()
	if !panicked {
		t.Error("PersistenceLoop in volatile mode did not panic")
	}
}

// TestDurableFlushesLogEntries confirms the durable combiner actually
// persists entries: after a clean run, the persisted view of the log holds
// every entry below completedTail.
func TestDurableFlushesLogEntries(t *testing.T) {
	cfg := hashCfg(Durable, 4, 512, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 311)
	w.runWorkers(4, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < 50; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	l := w.p.log
	ct := l.PersistedCompletedTail()
	if ct == 0 {
		t.Fatal("completedTail never persisted")
	}
	for idx := uint64(0); idx < ct; idx++ {
		if !l.PersistedIsFull(idx) {
			t.Errorf("entry %d below persisted completedTail %d is not durable", idx, ct)
		}
	}
}

func TestSeqDataStructuresAcrossEngine(t *testing.T) {
	// Every sequential structure must run under the engine unchanged.
	cases := []struct {
		name     string
		obj      uc.ObjectType
		ops      []uc.Op
		wantSize uint64
	}{
		{"skiplist", seq.SkipListType(),
			[]uc.Op{{Code: uc.OpInsert, A0: 1, A1: 2}, {Code: uc.OpInsert, A0: 3, A1: 4}}, 2},
		{"listset", seq.ListSetType(),
			[]uc.Op{{Code: uc.OpInsert, A0: 5, A1: 6}}, 1},
		{"queue", seq.QueueType(),
			[]uc.Op{{Code: uc.OpEnqueue, A0: 7}, {Code: uc.OpEnqueue, A0: 8}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hashCfg(Buffered, 4, 128, 32)
			cfg.Factory, cfg.Attacher = tc.obj.New, tc.obj.Attach
			w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 313)
			w.runWorkers(1, 0, func(th *sim.Thread, tid int) {
				for _, op := range tc.ops {
					w.p.Execute(th, tid, op)
				}
			})
			w.query(func(th *sim.Thread) {
				if got := w.p.Execute(th, 0, uc.Size()); got != tc.wantSize {
					t.Errorf("size = %d, want %d", got, tc.wantSize)
				}
			})
		})
	}
}
