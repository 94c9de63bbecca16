package integration

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/harness"
	"prepuc/internal/linearize"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// The crash cycle of internal/harness (harness.Machine: boot, insert workload
// into a crash, recover, probe), wrapped for the crash tests of this package:
// the wrappers fail the test where the cycle answers with an error.

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
func bootUnit(t *testing.T, d *uc.Driver, bgFlushOneIn, nvmSeed uint64) *harness.Machine {
	t.Helper()
	m, err := harness.BootMachine(topo(), nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: bgFlushOneIn, Seed: nvmSeed}, d)
	if err != nil {
		t.Fatalf("%s boot: %v", d.Name, err)
	}
	return m
}

// insertUntilCrash runs workers inserting their per-worker key sequences
// into the crash armed at crashAt, and returns the recorded inserts.
func insertUntilCrash(t *testing.T, m *harness.Machine, crashAt uint64, workers int,
	key harness.KeyFunc) []linearize.Op {
	t.Helper()
	recs, err := m.InsertUntilCrash(crashAt, workers, key)
	if err != nil {
		t.Fatalf("%s: workload before the crash at %d: %v", m.Drivers[0].Name, crashAt, err)
	}
	return recs[0].Ops()
}

// invoked counts, per worker, the inserts ops recorded: worker tid's keys
// are key(0, tid, i) for i below it.
func invoked(ops []linearize.Op, workers int) []uint64 {
	n := make([]uint64, workers)
	for _, op := range ops {
		n[op.Client]++
	}
	return n
}

// recoverOnce recovers the crashed machine, no nested crash armed.
func recoverOnce(t *testing.T, m *harness.Machine) {
	t.Helper()
	if _, err := m.Recover(nil, nil); err != nil {
		t.Fatalf("%s recover: %v", m.Drivers[0].Name, err)
	}
}

// checkInserts probes the keys of the recorded inserts plus extra keys past
// each worker's last one, and returns the instance's verdict on them and how
// many keys the instance holds beyond them.
func checkInserts(t *testing.T, m *harness.Machine, ops []linearize.Op, workers int, extra uint64, key harness.KeyFunc) (linearize.Result, uint64) {
	t.Helper()
	var keys []uint64
	for tid, n := range invoked(ops, workers) {
		for i := uint64(0); i < n+extra; i++ {
			keys = append(keys, key(0, tid, i))
		}
	}
	states, foreign, err := m.ProbeState([][]uint64{keys})
	if err != nil {
		t.Fatalf("%s probe: %v", m.Drivers[0].Name, err)
	}
	return m.CheckEpoch(0, nil, ops, states[0]), foreign[0]
}
