package integration

import (
	"reflect"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/harness"
	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// cycleTrace is everything one crash/recover cycle observed that could
// betray a schedule difference: per-worker completion counts, the event
// counts of every scheduler phase, the recovered-system metrics, and the
// key-by-key probe of the recovered state.
type cycleTrace struct {
	completed  []uint64
	workEvents uint64
	recEvents  uint64
	metrics    metrics.Snapshot
	keys       [][]bool
}

// runCrashCycle is a crashtest cycle in miniature: boot PREP-Durable, crash
// the insert workload at a fixed event index, recover, probe.
func runCrashCycle(t *testing.T, crashAt uint64) cycleTrace {
	t.Helper()
	const workers = 8
	m := bootUnit(t, prepDriver(core.Durable, prepSizing(workers, 128)), 11, 200, 13)
	completed, sch := insertUntilCrash(t, m, 12, crashAt, workers, harness.FlatKey)
	recoverOnce(t, m, 13)
	tr := cycleTrace{
		completed:  completed,
		workEvents: sch.Events(),
		recEvents:  m.Sys.Scheduler().Events(),
		metrics:    m.Sys.Metrics().Snapshot(),
	}
	// Last: the probe replaces the recovery scheduler read above.
	tr.keys = probePrefix(m, 14, completed, 16, harness.FlatKey)
	return tr
}

// TestRunAheadEquivalenceCrashCycle runs the identical crash/recover cycle
// with the run-ahead fast path on and off. The crash lands mid-schedule, so
// any divergence in dispatch order changes which operations completed, what
// recovery replays, and every virtual-time-charged counter — all of which
// must match exactly.
func TestRunAheadEquivalenceCrashCycle(t *testing.T) {
	defer func(v bool) { sim.DefaultRunAhead = v }(sim.DefaultRunAhead)
	for _, crashAt := range []uint64{5_000, 60_000, 155_000} {
		sim.DefaultRunAhead = true
		on := runCrashCycle(t, crashAt)
		sim.DefaultRunAhead = false
		off := runCrashCycle(t, crashAt)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("crashAt=%d: cycle diverges with run-ahead:\n  on:  %+v\n  off: %+v", crashAt, on, off)
		}
	}
}
