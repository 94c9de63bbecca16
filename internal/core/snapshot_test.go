package core

import (
	"slices"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func TestSnapshotIndexInvariants(t *testing.T) {
	const workers, perWorker = 8, 80
	cfg := hashCfg(Buffered, workers, 256, 64)
	w := newWorld(t, cfg, nvm.Config{Costs: sim.UnitCosts()}, 401)
	w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		for i := uint64(0); i < perWorker; i++ {
			w.p.Execute(th, tid, uc.Insert(uint64(tid)*1000+i, i))
		}
	})
	w.query(func(th *sim.Thread) {
		logTail, completedTail := w.p.log.LogTail(th), w.p.log.CompletedTail(th)
		total := uint64(workers * perWorker)
		if logTail != total {
			t.Errorf("LogTail = %d, want %d", logTail, total)
		}
		if completedTail > logTail {
			t.Errorf("CompletedTail %d > LogTail %d", completedTail, logTail)
		}
		if completedTail != total {
			t.Errorf("CompletedTail = %d after quiescence, want %d", completedTail, total)
		}
		var tails []uint64
		for i, r := range w.p.reps {
			lt := r.localTail(th)
			if lt > logTail {
				t.Errorf("replica %d localTail %d > LogTail", i, lt)
			}
			tails = append(tails, lt)
		}
		for i := range w.p.preps {
			pt := w.p.pTail(th, i)
			if pt > completedTail {
				t.Errorf("pReplica %d tail %d > CompletedTail %d", i, pt, completedTail)
			}
			tails = append(tails, pt)
		}
		if len(w.p.preps) != 2 {
			t.Errorf("%d persistent replicas, want 2", len(w.p.preps))
		}
		// logMin invariant: reusable horizon never admits unapplied entries.
		lowest := slices.Min(tails)
		if logMin := w.p.log.LogMin(th); logMin > lowest+cfg.LogSize-1 {
			t.Errorf("LogMin %d beyond lowest localTail %d + size − 1", logMin, lowest)
		}
	})
}

func TestSnapshotVolatileMode(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 4, 128, 0), nvm.Config{Costs: sim.UnitCosts()}, 402)
	w.runWorkers(4, 0, func(th *sim.Thread, tid int) {
		w.p.Execute(th, tid, uc.Insert(uint64(tid), 1))
	})
	w.query(func(th *sim.Thread) {
		if fb := w.p.flushBoundary(th); fb != 0 || len(w.p.preps) != 0 {
			t.Errorf("volatile engine has persistence state: flushBoundary=%d, %d persistent replicas", fb, len(w.p.preps))
		}
		if tail := w.p.log.LogTail(th); tail != 4 {
			t.Errorf("LogTail = %d, want 4", tail)
		}
	})
}
