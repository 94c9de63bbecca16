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
	"prepuc/internal/uc"
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
// to resubmit followed by everything not yet submitted, renumbered from 0.
// The window is compacted in place across a block boundary: the in-flight
// window straddles the first block's end, and the blocks it no longer
// reaches go back to the free list.
func TestResumePlan(t *testing.T) {
	const resume, submitted = blockLen - 2, blockLen + 3 // window: sequence numbers resume..submitted-1
	const n = blockLen + 12
	fill := func() (*window, *[]*block) {
		w, free := &window{}, new([]*block)
		for i := 0; i < n; i++ {
			w.push(openloop.Arrival{At: uint64(100 + i)}, free)
		}
		for w.base < resume {
			w.pop(free)
		}
		return w, free
	}
	rest := func(from int) (out []uint64) {
		for i := from; i < n; i++ {
			out = append(out, uint64(100+i))
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		resub []int
		free  int
	}{
		{"nothing committed", []int{resume, resume + 1, resume + 2, resume + 3, resume + 4}, 0},
		{"middle committed", []int{resume, resume + 2, resume + 4}, 1},
		{"all committed", nil, 1},
	} {
		w, free := fill()
		resumePlan(w, free, submitted, tc.resub)
		var want []uint64
		for _, seq := range tc.resub {
			want = append(want, uint64(100+seq))
		}
		want = append(want, rest(submitted)...)
		var got []uint64
		for seq := 0; seq < w.n; seq++ {
			got = append(got, w.at(seq).At)
		}
		if w.base != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plan %v from %d, want %v from 0", tc.name, got, w.base, want)
		}
		if len(*free) != tc.free {
			t.Errorf("%s: %d blocks freed, want %d", tc.name, len(*free), tc.free)
		}
	}
	w, free := &window{}, new([]*block)
	w.push(openloop.Arrival{At: 7}, free)
	w.pop(free)
	if resumePlan(w, free, 1, nil); w.n != 0 || w.base != 0 {
		t.Errorf("ring with nothing left plans %d arrivals from %d", w.n, w.base)
	}
}

// TestRunServeResolvesCommittedInFlight drives the resolved-committed resume
// branch end to end. At this crash instant PREP-Durable's one in-flight
// operation had committed before the cut: recovery resolves it from its
// descriptor, the resume completes it with the recorded result instead of
// resubmitting it (resumePlan compacts the ring's window without it), the
// duplicate audit finds nothing, and the two-epoch check holds the
// operation to its committed verdict. This is prepserve -scenario crash
// -system prep-durable -workers 2 -keys 256 -clients 500 -rate 2e6
// -duration 200000 -think 5000 -burst-every 0 -crash-ns 146665 -check, a
// leg of CI's exactly-once smoke.
func TestRunServeResolvesCommittedInFlight(t *testing.T) {
	cfg := ShardedServeConfig{
		Instances: 1, Route: "hash", TotalWorkers: 2,
		RingSize: 1024, MaxBatch: 32, Batched: true, Seed: 1, Check: true,
		CrashAtNS: 146_665, CrashShards: []int{0},
		Open: openloop.Config{
			Clients: 500, Keys: 256, KeySkew: 1.2, ReadPct: 80, Rate: 2e6,
			DurationNS: 200_000, ThinkNS: 5_000, BurstLenNS: 100_000, BurstFactor: 4,
			Seed: 1001,
		},
	}
	res, err := RunShardedServe(func() *uc.Driver { return ServeDrivers(2, 64)[0] }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, cb := res.Crash, res.Check
	if res.System != "PREP-Durable" || c == nil || cb == nil {
		t.Fatalf("%s: crash %+v, check %+v", res.System, c, cb)
	}
	if c.DuplicatesApplied == nil {
		t.Fatal("a detectable driver's crash block carries no duplicate audit")
	}
	if c.LostInflight != 1 || c.InFlightResolved != 1 || c.ResolvedCompleted != 1 || *c.DuplicatesApplied != 0 {
		t.Errorf("lost_inflight=%d in_flight_resolved=%d resolved_completed=%d duplicates_applied=%d, want 1, 1, 1 and 0",
			c.LostInflight, c.InFlightResolved, c.ResolvedCompleted, *c.DuplicatesApplied)
	}
	if !cb.OK || cb.Epochs != 2 || cb.InFlightCommitted != 1 || cb.InFlightNever != 0 {
		t.Errorf("check %+v, want ok over 2 epochs with committed=1 never=0", cb)
	}
	if res.Completed != res.Submitted || res.Metrics.DedupHits != 1 {
		t.Errorf("completed %d of %d submitted, dedup hits %d: want every arrival once, one from its descriptor",
			res.Completed, res.Submitted, res.Metrics.DedupHits)
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
