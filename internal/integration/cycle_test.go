package integration

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/harness"
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
// into the crash armed at crashAt, and returns how many inserts each
// completed plus the frozen scheduler.
func insertUntilCrash(t *testing.T, m *harness.Machine, crashAt uint64, workers int,
	key harness.KeyFunc) ([]uint64, *sim.Scheduler) {
	t.Helper()
	completed, sch := m.InsertUntilCrash(crashAt, workers, key)
	if !sch.Frozen() {
		t.Fatalf("%s: crash at %d never fired", m.Drivers[0].Name, crashAt)
	}
	return completed[0], sch
}

// recoverOnce recovers the crashed machine, no nested crash armed.
func recoverOnce(t *testing.T, m *harness.Machine) {
	t.Helper()
	if _, err := m.Recover(nil, nil); err != nil {
		t.Fatalf("%s recover: %v", m.Drivers[0].Name, err)
	}
}

// probePrefix reads back, per worker, which of its first completed+extra
// keys the engine holds.
func probePrefix(t *testing.T, m *harness.Machine, completed []uint64, extra uint64, key harness.KeyFunc) [][]bool {
	t.Helper()
	keys, _, err := m.ProbePrefix([][]uint64{completed}, extra, key, false)
	if err != nil {
		t.Fatalf("%s probe: %v", m.Drivers[0].Name, err)
	}
	return keys[0]
}
