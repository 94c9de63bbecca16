package harness

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/nvm"
	"prepuc/internal/openloop"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func serveTestConfig(crashAt uint64) ServeConfig {
	return ServeConfig{
		Shards: 2, RingSize: 256, MaxBatch: 32, Batched: true, Seed: 5,
		CrashAtNS: crashAt,
		Open: openloop.Config{
			Clients: 20_000, Keys: 1 << 12, KeySkew: 1.2, ReadPct: 80,
			Rate: 2e6, DurationNS: 400_000, ThinkNS: 20_000,
			BurstEveryNS: 100_000, BurstLenNS: 20_000, BurstFactor: 4,
			Seed: 99,
		},
	}
}

// TestRunServeSteadyDeterministic: the whole measurement — throughput,
// every percentile, every ring counter — is a pure function of the config.
func TestRunServeSteadyDeterministic(t *testing.T) {
	run := func() *ServeResult {
		res, err := RunServe(ServeDrivers(2, 64)[0], serveTestConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same config, different results:\n%s\n%s", aj, bj)
	}
	if a.Completed == 0 || a.Completed != a.Submitted {
		t.Fatalf("steady run left work behind: completed=%d submitted=%d", a.Completed, a.Submitted)
	}
	if a.Latency.P50 == 0 || a.Latency.P999 < a.Latency.P50 {
		t.Fatalf("implausible latency summary: %+v", a.Latency)
	}
}

// TestRunServeCrashAllSystems: every recoverable construction survives the
// crash-under-load scenario and eventually retires the full schedule, with
// a nonzero recovery window reported.
func TestRunServeCrashAllSystems(t *testing.T) {
	for _, d := range ServeDrivers(2, 64) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			res, err := RunServe(d, serveTestConfig(200_000))
			if err != nil {
				t.Fatal(err)
			}
			c := res.Crash
			if c == nil {
				t.Fatal("crash scenario reported no crash block")
			}
			if c.RecoveryVirtualNS == 0 {
				t.Error("zero recovery time")
			}
			if c.StallNS < c.RecoveryVirtualNS {
				t.Errorf("stall %d ns shorter than recovery %d ns", c.StallNS, c.RecoveryVirtualNS)
			}
			if c.BacklogAtResume == 0 {
				t.Error("no backlog accumulated across the outage")
			}
			// Every completion passed through a ring submission, except
			// descriptor-resolved deliveries (completed without resubmission).
			resolved := uint64(0)
			if c.Detectable {
				resolved = c.ResolvedCompleted
			}
			if res.Submitted+resolved < res.Completed {
				t.Errorf("submitted %d + resolved %d < completed %d",
					res.Submitted, resolved, res.Completed)
			}
			if res.Completed == 0 {
				t.Error("nothing completed")
			}
			if res.Latency.P999 <= res.Latency.P50 {
				t.Errorf("outage left no latency tail: %+v", res.Latency)
			}
		})
	}
}

// TestRunServeRejectsUnrunnableGeometry: a ring count below one used to
// divide by zero splitting the schedule, and a batched drain cap past
// core.MaxBatch used to panic inside a simulated consumer thread; both are
// errors from the entry point (TestShardedServeConfigValidation holds the
// sharded one to the same).
func TestRunServeRejectsUnrunnableGeometry(t *testing.T) {
	for name, mut := range map[string]func(*ServeConfig){
		"Shards=0":    func(c *ServeConfig) { c.Shards = 0 },
		"MaxBatch=65": func(c *ServeConfig) { c.MaxBatch = core.MaxBatch + 1 },
	} {
		cfg := serveTestConfig(0)
		mut(&cfg)
		if _, err := RunServe(ServeDrivers(2, 64)[0], cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunServeCrashMissesLoad: a crash instant past the last completion used
// to freeze the drained, idle machine and report stall 0 and nothing in
// flight as a crash under load. The crasher now leaves such a machine alone,
// so the run ends unfrozen and the entry points answer with the error
// ServeConfig.CrashAtNS documents — flat, and for a crashed machine of a
// sharded run.
func TestRunServeCrashMissesLoad(t *testing.T) {
	const late = 999_999_999
	_, flatErr := RunServe(ServeDrivers(2, 64)[0], serveTestConfig(late))
	_, shardedErr := RunShardedServe(durableFactory(2), shardedTestConfig(2, late, []int{1}))
	for name, err := range map[string]error{"flat": flatErr, "sharded": shardedErr} {
		if err == nil || !strings.Contains(err.Error(), "never fired (load drained first)") {
			t.Errorf("%s: err = %v, want the crash-never-fired error", name, err)
		}
	}
}

// TestServeSystemLists guards the two lists the serve CLIs and the frozen
// benchmark read: the registry is the six constructions and ServeDrivers
// exactly the five recoverable ones, both in the order that is document
// order in every golden.
func TestServeSystemLists(t *testing.T) {
	want := []string{"PREP-Volatile", "PREP-Durable", "PREP-Buffered", "CX-PUC", "SOFT", "ONLL"}
	var systems, recoverable []string
	for _, sys := range drivers.All() {
		systems = append(systems, sys.Name)
		if d := sys.New(ServeSizing(4, 64)); d.Name != sys.Name || (d.Recover == nil) != sys.SteadyOnly {
			t.Errorf("%s: New built %q (recover=%v)", sys.Name, d.Name, d.Recover != nil)
		}
	}
	for _, d := range ServeDrivers(4, 64) {
		recoverable = append(recoverable, d.Name)
	}
	if !reflect.DeepEqual(systems, want) {
		t.Errorf("drivers.All = %v, want %v", systems, want)
	}
	if !reflect.DeepEqual(recoverable, want[1:]) {
		t.Errorf("ServeDrivers = %v, want %v", recoverable, want[1:])
	}
}

// TestRunServeRecoveryPanicIsAnError: a bug panic inside a construction's
// Recover is the run's verdict — the error crashtest reports for the same
// fault — not a stack trace out of Scheduler.Run, flat or sharded.
func TestRunServeRecoveryPanicIsAnError(t *testing.T) {
	panicky := func(per int) func() *ServeDriver {
		return func() *ServeDriver {
			d := *ServeDrivers(per, 64)[0]
			d.Recover = func(*sim.Thread, *nvm.System) (uc.UC, uc.RecoverInfo, error) {
				panic("walked a torn image")
			}
			return &d
		}
	}
	const want = "serve: recover PREP-Durable: recovery panicked: walked a torn image"
	if _, err := RunServe(panicky(2)(), serveTestConfig(200_000)); err == nil || err.Error() != want {
		t.Errorf("flat: error %v, want %q", err, want)
	}
	_, err := RunShardedServe(panicky(1), shardedTestConfig(4, 200_000, []int{2}))
	if err == nil || err.Error() != "sharded serve: shard 2: "+want {
		t.Errorf("sharded: error %v, want shard 2's %q", err, want)
	}
}

// TestRunServeProbePanicIsAnError: a construction whose read walk panics on
// its recovered image fails a checked run with that error — as a panic
// inside Recover does — instead of a stack trace out of Scheduler.Run, flat
// or sharded.
func TestRunServeProbePanicIsAnError(t *testing.T) {
	panicky := func(per int) func() *ServeDriver {
		return func() *ServeDriver {
			d := *ServeDrivers(per, 64)[0]
			rec := d.Recover
			d.Recover = func(t *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
				eng, info, err := rec(t, sys)
				return tornReads{eng}, info, err
			}
			return &d
		}
	}
	const want = "serve: probe PREP-Durable: probe panicked: walked a torn image"
	cfg := serveTestConfig(200_000)
	cfg.Check = true
	if _, err := RunServe(panicky(2)(), cfg); err == nil || err.Error() != want {
		t.Errorf("flat: error %v, want %q", err, want)
	}
	scfg := shardedTestConfig(4, 200_000, []int{2})
	scfg.Check = true
	_, err := RunShardedServe(panicky(1), scfg)
	if err == nil || err.Error() != "sharded serve: shard 2: "+want {
		t.Errorf("sharded: error %v, want shard 2's %q", err, want)
	}
}

// tornReads is an engine whose reads walk an image they cannot make sense of.
type tornReads struct{ uc.UC }

func (e tornReads) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	if op.Code == uc.OpGet {
		panic("walked a torn image")
	}
	return e.UC.Execute(t, tid, op)
}
