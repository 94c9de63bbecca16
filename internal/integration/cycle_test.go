package integration

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/history"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// The crash cycle in miniature — boot, insert workload into a crash,
// recover, probe — shared by the crash tests of this package.

// prepSizing is the small PREP machine the crash tests run: a 64-bucket
// hashmap in a 1M-word heap, ε=32.
func prepSizing(workers int, logSize uint64) uc.Sizing {
	return uc.Sizing{
		Topology: topo(), Workers: workers, Object: seq.HashMapType(64),
		LogSize: logSize, Epsilon: 32, HeapWords: 1 << 20,
	}
}

func prepDriver(mode core.Mode, sz uc.Sizing) *uc.Driver {
	return core.NewDriver(core.ConfigFor(mode, sz))
}

// bootUnit boots d on a fresh unit-cost machine.
func bootUnit(t *testing.T, d *uc.Driver, seed int64, bgFlushOneIn, nvmSeed uint64) (*nvm.System, uc.UC) {
	t.Helper()
	ns, eng, err := drivers.Boot(d, seed, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: bgFlushOneIn, Seed: nvmSeed}, nil)
	if err != nil {
		t.Fatalf("%s boot: %v", d.Name, err)
	}
	return ns, eng
}

// insertUntilCrash runs workers inserting their per-worker key sequences
// into the crash armed at crashAt, and returns how many inserts each
// completed plus the frozen scheduler.
func insertUntilCrash(t *testing.T, d *uc.Driver, eng uc.UC, ns *nvm.System, seed int64,
	crashAt uint64, workers int, key func(tid int, i uint64) uint64) ([]uint64, *sim.Scheduler) {
	t.Helper()
	sch := sim.New(seed)
	sch.CrashAtEvent(crashAt)
	ns.SetScheduler(sch)
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	completed := make([]uint64, workers)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		sch.Spawn("w", topo().NodeOf(tid), 0, func(th *sim.Thread) {
			defer func() {
				if r := recover(); r != nil && !sim.Crashed(r) {
					panic(r)
				}
			}()
			for i := uint64(0); ; i++ {
				eng.Execute(th, tid, uc.Insert(key(tid, i), i))
				completed[tid] = i + 1
			}
		})
	}
	sch.Run()
	if !sch.Frozen() {
		t.Fatalf("%s: crash at %d never fired", d.Name, crashAt)
	}
	return completed, sch
}

// recoverOnce recovers the crashed ns through d, no nested crash armed.
func recoverOnce(t *testing.T, d *uc.Driver, ns *nvm.System, seed int64) drivers.Recovery {
	t.Helper()
	r, err := drivers.Recover(d, ns, seed, nil, nil)
	if err != nil {
		t.Fatalf("%s recover: %v", d.Name, err)
	}
	return r
}

// probePrefix reads back, per worker, which of its first completed+extra
// keys the engine holds.
func probePrefix(ns *nvm.System, eng uc.UC, seed int64, completed []uint64, extra uint64,
	key func(tid int, i uint64) uint64) [][]bool {
	keys := make([][]bool, len(completed))
	drivers.Probe(ns, seed, func(th *sim.Thread) {
		for tid := range keys {
			keys[tid] = make([]bool, completed[tid]+extra)
			for i := range keys[tid] {
				keys[tid][i] = eng.Execute(th, 0, uc.Get(key(tid, uint64(i)))) != uc.NotFound
			}
		}
	})
	return keys
}

// durableOK applies d's correctness condition to a prefix report.
func durableOK(d *uc.Driver, rep history.Report) bool {
	if d.Buffered {
		return rep.BufferedOK(d.Epsilon, uint64(topo().ThreadsPerNode))
	}
	return rep.DurableOK()
}
