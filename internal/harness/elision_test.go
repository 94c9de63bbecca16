package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// elisionCounters are the metrics keys flush elision may move: what a flush
// request is charged as and how it is counted (DESIGN.md §12).
var elisionCounters = []string{
	"flush_async", "flush_sync", "flushes", "flushes_elided", "flush_elision_checks", "lines_written_back",
}

// TestFlushElisionCycleIdentity pins §12's schedule-identity claim at the
// construction level: for every recoverable system one crash cycle under
// unit costs — dropall adversary, one crash nested inside recovery — runs
// with elision on (the default) and with the substrate switch turned off at
// boot. The two agree on every phase's event count, the final machine's
// persisted fingerprint, the crash points, the verdict and recovery's virtual
// time; their cycle records differ only in the flush-accounting counters.
func TestFlushElisionCycleIdentity(t *testing.T) {
	c := CrashConfig{
		Iterations: 1, Workers: 2, Epsilon: 16, LogSize: 128, Seed: 42,
		Policy: "dropall", Nested: 1, Epochs: 1,
	}
	tgs, err := CrashTargets("all", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range tgs {
		t.Run(tg.Flag, func(t *testing.T) {
			on := elisionCycle(t, c, tg, true)
			off := elisionCycle(t, c, tg, false)
			if !reflect.DeepEqual(on.events, off.events) || on.fingerprint != off.fingerprint {
				t.Errorf("schedules differ: events %v vs %v, fingerprint %#x vs %#x",
					on.events, off.events, on.fingerprint, off.fingerprint)
			}
			if on.cycle.Metrics.FlushesElided == 0 || off.cycle.Metrics.FlushesElided != 0 {
				t.Errorf("flushes_elided on=%d off=%d, want >0 and 0",
					on.cycle.Metrics.FlushesElided, off.cycle.Metrics.FlushesElided)
			}
			if a, b := recordWithout(t, on.cycle), recordWithout(t, off.cycle); !reflect.DeepEqual(a, b) {
				t.Errorf("cycle records differ beyond the flush counters:\n on: %v\noff: %v", a, b)
			}
		})
	}
}

// elisionRun is one cycle's record plus what its machines did: the event
// count of every phase in lineage order (workload, then each recovery
// attempt) and the final machine's persisted fingerprint.
type elisionRun struct {
	cycle       CrashCycle
	events      []uint64
	fingerprint uint64
}

// elisionCycle runs iteration 0 of tg's crash cycle with flush elision set
// to elide from boot on.
func elisionCycle(t *testing.T, c CrashConfig, tg CrashTarget, elide bool) elisionRun {
	t.Helper()
	var run elisionRun
	var booted, last *nvm.System
	mk := tg.New
	tg.New = func(sz uc.Sizing) *uc.Driver {
		d := mk(sz)
		boot, rec := d.Boot, d.Recover
		d.Boot = func(th *sim.Thread, sys *nvm.System) (uc.UC, error) {
			booted = sys
			sys.SetFlushElision(elide)
			return boot(th, sys)
		}
		d.Recover = func(th *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
			last = sys
			defer func() { run.events = append(run.events, th.Scheduler().Events()) }()
			return rec(th, sys)
		}
		return d
	}
	cyc, _, err := c.cycle(tg, 0, c.crashEvent(0))
	if err != nil || !cyc.OK {
		t.Fatalf("elide=%v: cycle ok=%v: %v", elide, cyc.OK, err)
	}
	if cyc.Fault.NestedCrashes != 1 {
		t.Fatalf("elide=%v: %d nested crashes, want 1", elide, cyc.Fault.NestedCrashes)
	}
	// The booted machine's last scheduler is the workload's.
	run.cycle = cyc
	run.events = append([]uint64{booted.Scheduler().Events()}, run.events...)
	run.fingerprint = last.PersistedFingerprint()
	return run
}

// recordWithout is a cycle record as its JSON document carries it, minus the
// counters elision may move.
func recordWithout(t *testing.T, cyc CrashCycle) map[string]any {
	t.Helper()
	raw, err := json.Marshal(cyc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	ms := m["metrics"].(map[string]any)
	for _, k := range elisionCounters {
		if _, ok := ms[k]; !ok {
			t.Fatalf("metrics block has no %q", k)
		}
		delete(ms, k)
	}
	return m
}
