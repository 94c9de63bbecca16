package harness

// Tests for the detectable crash resume: the PREP drivers run with
// operation descriptors, so RunServe's recovery must resolve the whole
// in-flight window, deliver committed results without resubmitting, and
// never double-apply — across fault adversaries, and verified end to end by
// the strengthened linearize check.

import (
	"encoding/json"
	"reflect"
	"testing"

	"prepuc/internal/openloop"
	"prepuc/internal/svc"
)

// detectConfig is serveTestConfig with a higher-pressure crash instant so
// the in-flight window is routinely nonempty.
func detectConfig(crashAt uint64, policy string, check bool) ServeConfig {
	cfg := serveTestConfig(crashAt)
	cfg.Policy = policy
	cfg.Check = check
	return cfg
}

// TestRunServeDetectableExactlyOnce: with descriptors on, every arrival
// completes exactly once — the schedule total — and the resume plan
// resubmits nothing recovery proved committed.
func TestRunServeDetectableExactlyOnce(t *testing.T) {
	drivers := ServeDrivers(2, 64)
	for _, d := range drivers[:2] { // PREP-Durable, PREP-Buffered
		d := d
		t.Run(d.Name, func(t *testing.T) {
			cfg := detectConfig(200_000, "", false)
			arrivals, err := openloop.Generate(cfg.Open)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunServe(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := res.Crash
			if !c.Detectable {
				t.Fatal("PREP driver not marked detectable")
			}
			if c.InFlightResolved != c.LostInflight {
				t.Errorf("resolved %d of %d in-flight operations; detectability must answer all",
					c.InFlightResolved, c.LostInflight)
			}
			if c.DuplicatesApplied == nil {
				t.Fatal("detectable driver reported no duplicates_applied")
			}
			if *c.DuplicatesApplied != 0 {
				t.Errorf("duplicates_applied = %d, want 0", *c.DuplicatesApplied)
			}
			if c.ResolvedCompleted > c.InFlightResolved {
				t.Errorf("resolved_completed %d exceeds in_flight_resolved %d",
					c.ResolvedCompleted, c.InFlightResolved)
			}
			// Exactly-once conservation: every scheduled arrival completes
			// once — through a ring or through a resolved delivery.
			if res.Completed != uint64(len(arrivals)) {
				t.Errorf("completed %d, want exactly the %d scheduled arrivals",
					res.Completed, len(arrivals))
			}
			if res.Submitted+c.ResolvedCompleted != uint64(len(arrivals)) {
				t.Errorf("submitted %d + resolved %d ≠ schedule %d",
					res.Submitted, c.ResolvedCompleted, len(arrivals))
			}
		})
	}
}

// TestRunServeCrashCheckAllSystems: the two-epoch linearize check passes for
// every driver under the fault adversaries — the PREP drivers with their
// in-flight windows classified by descriptor verdicts, the others under
// plain at-most-once InFlight semantics.
func TestRunServeCrashCheckAllSystems(t *testing.T) {
	for _, policy := range []string{"", "coinflip", "targeted"} {
		for _, d := range ServeDrivers(2, 64) {
			d, policy := d, policy
			t.Run(d.Name+"/"+orDefault(policy), func(t *testing.T) {
				res, err := RunServe(d, detectConfig(200_000, policy, true))
				if err != nil {
					t.Fatal(err)
				}
				cb := res.Check
				if cb == nil {
					t.Fatal("check requested but no check block")
				}
				if !cb.OK {
					t.Fatalf("linearize check failed: epoch %d, %s: %s",
						cb.FailedEpoch, cb.FailedPartition, cb.Reason)
				}
				if cb.Epochs != 2 || cb.Ops == 0 {
					t.Errorf("implausible check block: %+v", cb)
				}
				if d.Detect && res.Crash.InFlightResolved !=
					cb.InFlightCommitted+cb.InFlightNever {
					t.Errorf("classified %d+%d in-flight ops, resolved %d",
						cb.InFlightCommitted, cb.InFlightNever, res.Crash.InFlightResolved)
				}
			})
		}
	}
}

func orDefault(policy string) string {
	if policy == "" {
		return "default"
	}
	return policy
}

// TestRunServeSteadyCheck: the crash-free checked run is a single strict
// epoch and passes for every driver.
func TestRunServeSteadyCheck(t *testing.T) {
	for _, d := range ServeDrivers(2, 64) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			res, err := RunServe(d, detectConfig(0, "", true))
			if err != nil {
				t.Fatal(err)
			}
			cb := res.Check
			if cb == nil || !cb.OK || cb.Epochs != 1 {
				t.Fatalf("steady check: %+v", cb)
			}
			if cb.InFlightCommitted != 0 || cb.InFlightNever != 0 {
				t.Errorf("steady run classified in-flight ops: %+v", cb)
			}
		})
	}
}

// TestRunServeCrashDeterministic: the crash scenario — including recovery,
// descriptor resolution, the resume plan and the check — is a pure function
// of the config.
func TestRunServeCrashDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunServe(ServeDrivers(2, 64)[0], detectConfig(200_000, "coinflip", true))
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(res)
		return string(j)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same config, different results:\n%s\n%s", a, b)
	}
}

// TestRunServeCrashStride sweeps the crash instant at a fine stride across
// the load's ramp so the cut lands at many distinct machine states — mid
// batch, mid combiner session, mid persistence cycle — and asserts the
// exactly-once invariants at every offset.
func TestRunServeCrashStride(t *testing.T) {
	if testing.Short() {
		t.Skip("stride sweep is slow")
	}
	for _, d := range ServeDrivers(2, 64)[:2] {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			for crashAt := uint64(120_000); crashAt <= 240_000; crashAt += 7_001 {
				res, err := RunServe(d, detectConfig(crashAt, "coinflip", true))
				if err != nil {
					t.Fatalf("crash@%d: %v", crashAt, err)
				}
				c := res.Crash
				if c.InFlightResolved != c.LostInflight {
					t.Errorf("crash@%d: resolved %d of %d", crashAt, c.InFlightResolved, c.LostInflight)
				}
				if c.DuplicatesApplied == nil || *c.DuplicatesApplied != 0 {
					t.Errorf("crash@%d: duplicates %v", crashAt, c.DuplicatesApplied)
				}
				if !res.Check.OK {
					t.Errorf("crash@%d: check failed: %s", crashAt, res.Check.Reason)
				}
			}
		})
	}
}

// TestResumePlan: a ring's phase-B schedule is the window operations still
// to resubmit followed by everything not yet submitted. With the whole
// window resubmitted that is the rest of the ring's schedule as it stands —
// shared with phase A's slice, not copied; once recovery resolved part of
// the window as committed, it is rebuilt without those operations and the
// pre-crash schedule (which the check still zips completions against) is
// left alone.
func TestResumePlan(t *testing.T) {
	all := make([]openloop.Arrival, 12)
	for i := range all {
		all[i].At = uint64(100 + i)
	}
	const resume, submitted = 3, 8 // window: sequence numbers 3..7
	ats := func(arr []openloop.Arrival) (out []uint64) {
		for _, a := range arr {
			out = append(out, a.At)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		resub  []int
		shared bool
		want   []uint64
	}{
		{"nothing committed", []int{3, 4, 5, 6, 7}, true, []uint64{103, 104, 105, 106, 107, 108, 109, 110, 111}},
		{"middle committed", []int{3, 5, 7}, false, []uint64{103, 105, 107, 108, 109, 110, 111}},
		{"all committed", nil, false, []uint64{108, 109, 110, 111}},
	} {
		plan := resumePlan(all, resume, submitted, tc.resub)
		if got := ats(plan); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: plan %v, want %v", tc.name, got, tc.want)
		}
		if shared := &plan[0] == &all[resume]; shared != tc.shared {
			t.Errorf("%s: plan shares the schedule = %v, want %v", tc.name, shared, tc.shared)
		}
	}
	if empty := resumePlan(all, len(all), len(all), nil); len(empty) != 0 {
		t.Errorf("ring with nothing left plans %v", ats(empty))
	}
	for i, a := range all {
		if a.At != uint64(100+i) {
			t.Fatalf("planning modified the pre-crash schedule at %d", i)
		}
	}
}

// TestDuplicateAuditCountsCommittedResubmissions forces the one verdict no
// healthy run produces: a resume plan drawn up against an empty resolved map
// resubmits the whole in-flight window, and the audit, consulting the map
// recovery actually returned, counts each planned resubmission it proves
// committed. The count is the record's duplicates_applied, which fails a
// prepserve run (cmd/prepserve TestDuplicateFailsRun).
func TestDuplicateAuditCountsCommittedResubmissions(t *testing.T) {
	resubSeq := [][]int{{3, 4, 5}, {7}} // ring 0 and ring 1 windows, all resubmitted
	resolved := map[uint64]uint64{
		svc.InvocationID(0, 0, 4): 11, // committed before the cut: a double apply
		svc.InvocationID(0, 1, 7): 12, // likewise
		svc.InvocationID(0, 1, 3): 13, // committed, but not in the plan
		svc.InvocationID(1, 0, 5): 14, // another service generation's id
	}
	if dup := duplicatesIn(resubSeq, resolved); dup != 2 {
		t.Errorf("audit counted %d duplicates, want 2", dup)
	}
	if dup := duplicatesIn(resubSeq, nil); dup != 0 {
		t.Errorf("audit against the plan's own (empty) map counted %d duplicates", dup)
	}
}

// TestRunServeTornDescriptorRepros: at these two crash instants the
// substrate's background eviction writes a descriptor line back in the
// middle of a slot's rewrite. A record that published its invocation id
// first persisted the new id beside the previous occupant's live flag,
// position and result; recovery resolved the insert of key 314 as committed
// and the resume never resubmitted it. Update-only saturation on small
// rings, so descriptor slots are reused throughout.
func TestRunServeTornDescriptorRepros(t *testing.T) {
	for _, crashAt := range []uint64{153_110, 153_421} {
		cfg := ServeConfig{
			Shards: 2, RingSize: 64, MaxBatch: 32, Batched: true, Seed: 1,
			CrashAtNS: crashAt, Check: true,
			Open: openloop.Config{
				Clients: 20_000, Keys: 1 << 12, KeySkew: 1.2, ReadPct: 0,
				Rate: 2e7, DurationNS: 300_000, ThinkNS: 50_000,
				BurstEveryNS: 500_000, BurstLenNS: 100_000, BurstFactor: 4,
				Seed: 1001,
			},
		}
		res, err := RunServe(ServeDrivers(2, 64)[0], cfg)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if cb := res.Check; !cb.OK {
			t.Errorf("crash@%d: check failed: epoch %d, %s: %s",
				crashAt, cb.FailedEpoch, cb.FailedPartition, cb.Reason)
		}
		if c := res.Crash; c.InFlightResolved != c.LostInflight || *c.DuplicatesApplied != 0 {
			t.Errorf("crash@%d: resolved %d of %d in flight, %d duplicates",
				crashAt, c.InFlightResolved, c.LostInflight, *c.DuplicatesApplied)
		}
	}
}
