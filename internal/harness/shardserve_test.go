package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/openloop"
)

func shardedTestConfig(instances int, crashAt uint64, crash []int) ShardedServeConfig {
	return ShardedServeConfig{
		Instances: instances, Route: "hash", TotalWorkers: 4,
		RingSize: 256, MaxBatch: 32, Batched: true, Seed: 5,
		CrashAtNS: crashAt, CrashShards: crash,
		Open: openloop.Config{
			Clients: 20_000, Keys: 1 << 12, KeySkew: 1.2, ReadPct: 80,
			Rate: 4e6, DurationNS: 400_000, ThinkNS: 20_000,
			Seed: 99,
		},
	}
}

func durableFactory(per int) func() *ServeDriver {
	return func() *ServeDriver { return ServeDrivers(per, 64)[0] }
}

// TestShardedServeDeterministicAcrossJobs: the sharded document is a pure
// function of the config at any host parallelism — each machine's sub-run
// owns its seeds and result slot, so -j never shows in the bytes.
func TestShardedServeDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) []byte {
		cfg := shardedTestConfig(4, 0, nil)
		cfg.Jobs = jobs
		cfg.Check = true
		res, err := RunShardedServe(durableFactory(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(res)
		return j
	}
	a, b := run(1), run(8)
	if string(a) != string(b) {
		t.Fatalf("-j 1 and -j 8 disagree:\n%s\n%s", a, b)
	}
}

// TestShardedServeSteady checks the aggregate record's accounting: shard
// breakdowns partition the schedule and the totals, the composition audit
// (including the union epoch) passes, and the Zipf-skewed load shows up as
// measurable imbalance.
func TestShardedServeSteady(t *testing.T) {
	cfg := shardedTestConfig(4, 0, nil)
	cfg.Check = true
	res, err := RunShardedServe(durableFactory(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 4 || res.Route != "hash" {
		t.Fatalf("breakdown shape: %d shards, route %q", len(res.Shards), res.Route)
	}
	var sumC, sumS, sumA uint64
	for i, sh := range res.Shards {
		if sh.Shard != i || sh.Crashed || sh.Workers != 1 {
			t.Errorf("shard %d entry: %+v", i, sh)
		}
		if sh.Result.Completed == 0 || sh.Result.Completed != sh.Result.Submitted {
			t.Errorf("shard %d left work behind: %d/%d", i, sh.Result.Completed, sh.Result.Submitted)
		}
		if sh.Result.Check == nil || !sh.Result.Check.OK {
			t.Errorf("shard %d epoch check: %+v", i, sh.Result.Check)
		}
		sumC += sh.Result.Completed
		sumS += sh.Result.Submitted
		sumA += sh.Arrivals
	}
	if sumC != res.Completed || sumS != res.Submitted {
		t.Errorf("totals: aggregate %d/%d, shard sums %d/%d",
			res.Completed, res.Submitted, sumC, sumS)
	}
	if sumA != res.Completed {
		t.Errorf("schedule not conserved: %d arrivals, %d completed", sumA, res.Completed)
	}
	if res.Imbalance < 1.0 {
		t.Errorf("imbalance %f below the balanced floor", res.Imbalance)
	}
	if res.Check == nil || !res.Check.OK {
		t.Fatalf("aggregate check: %+v", res.Check)
	}
	comp := res.Composition
	if comp == nil || !comp.OK || !comp.UnionChecked {
		t.Fatalf("composition: %+v", comp)
	}
	if comp.KeysProbed == 0 || comp.UnionOps != int(res.Completed) {
		t.Errorf("composition audit sizing: %+v (completed %d)", comp, res.Completed)
	}
}

// TestShardedServePartialCrash crashes a proper subset of machines while
// the others keep serving: survivors never see a crash block, crashed
// shards recover with exactly-once resume (duplicates_applied == 0), and
// both the per-shard epoch checks and the cross-shard composition audit
// pass. Both adversary policies of the acceptance bar run.
func TestShardedServePartialCrash(t *testing.T) {
	for _, policy := range []string{"targeted", "coinflip"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := shardedTestConfig(4, 200_000, []int{0, 2})
			cfg.Check = true
			cfg.Policy = policy
			res, err := RunShardedServe(durableFactory(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range res.Shards {
				wantCrash := i == 0 || i == 2
				if sh.Crashed != wantCrash {
					t.Errorf("shard %d crashed=%v, want %v", i, sh.Crashed, wantCrash)
				}
				if gotCrash := sh.Result.Crash != nil; gotCrash != wantCrash {
					t.Errorf("shard %d crash block present=%v, want %v", i, gotCrash, wantCrash)
				}
				if wantCrash {
					c := sh.Result.Crash
					if !c.Detectable || c.DuplicatesApplied == nil || *c.DuplicatesApplied != 0 {
						t.Errorf("shard %d resume not exactly-once: %+v", i, c)
					}
					if c.StallNS == 0 {
						t.Errorf("shard %d reported no recovery stall", i)
					}
				}
				if sh.Result.Check == nil || !sh.Result.Check.OK {
					t.Errorf("shard %d epoch check: %+v", i, sh.Result.Check)
				}
			}
			if res.Crash == nil || res.Crash.DuplicatesApplied == nil || *res.Crash.DuplicatesApplied != 0 {
				t.Fatalf("aggregate crash block: %+v", res.Crash)
			}
			if res.Crash.StallNS == 0 || res.Crash.BacklogAtResume == 0 {
				t.Errorf("aggregate recovery economics empty: %+v", res.Crash)
			}
			if res.Check == nil || !res.Check.OK {
				t.Fatalf("aggregate check: %+v", res.Check)
			}
			comp := res.Composition
			if comp == nil || !comp.OK || comp.UnionChecked {
				t.Fatalf("composition (crash runs skip the union epoch): %+v", comp)
			}
		})
	}
}

// TestShardedServeConfigValidation rejects the configurations the flag
// parser cannot.
func TestShardedServeConfigValidation(t *testing.T) {
	mk := durableFactory(1)
	bad := []func(*ShardedServeConfig){
		func(c *ShardedServeConfig) { c.Instances = 0 },
		func(c *ShardedServeConfig) { c.TotalWorkers = 3 },
		func(c *ShardedServeConfig) { c.TotalWorkers = 0 },
		func(c *ShardedServeConfig) { c.Route = "modulo" },
		func(c *ShardedServeConfig) { c.CrashShards = []int{4}; c.CrashAtNS = 1 },
		func(c *ShardedServeConfig) { c.CrashShards = []int{1} },
		func(c *ShardedServeConfig) { c.CrashAtNS = 200_000 },
	}
	for i, mut := range bad {
		cfg := shardedTestConfig(4, 0, nil)
		mut(&cfg)
		if _, err := RunShardedServe(mk, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestShardedServeOneInstanceEqualsFlat pins the S=1 equivalence: one machine
// behind the router is the flat serve run. The aggregate record of a
// single-instance RunShardedServe equals RunServe's record field for field —
// steady and crash, checked, under the targeted adversary — once the four
// sharded-only fields are cleared, and so does its one shard breakdown.
func TestShardedServeOneInstanceEqualsFlat(t *testing.T) {
	for _, crashAt := range []uint64{0, 200_000} {
		cfg := serveTestConfig(crashAt)
		cfg.Policy, cfg.Check = "targeted", true
		scfg := ShardedServeConfig{
			Instances: 1, Route: "hash", TotalWorkers: cfg.Shards,
			RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch, Batched: cfg.Batched,
			Open: cfg.Open, Seed: cfg.Seed, Policy: cfg.Policy, Check: cfg.Check,
			CrashAtNS: crashAt,
		}
		if crashAt > 0 {
			scfg.CrashShards = []int{0}
		}
		for _, e := range drivers.Recoverable() {
			mk := func() *ServeDriver { return e.New(ServeSizing(cfg.Shards, 64)) }
			flat, err := RunServe(mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := RunShardedServe(mk, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(agg.Shards) != 1 || agg.Composition == nil || !agg.Composition.OK || agg.Imbalance != 1 {
				t.Fatalf("%s crash@%d: sharded fields of the S=1 aggregate: %+v", e.Name, crashAt, agg)
			}
			if sub := agg.Shards[0].Result; !reflect.DeepEqual(sub, flat) {
				t.Errorf("%s crash@%d: the one shard's record differs from the flat run:\n%+v\n%+v", e.Name, crashAt, sub, flat)
			}
			agg.Route, agg.Imbalance, agg.Shards, agg.Composition = "", 0, nil, nil
			if !reflect.DeepEqual(agg, flat) {
				a, _ := json.Marshal(agg)
				f, _ := json.Marshal(flat)
				t.Errorf("%s crash@%d: S=1 aggregate differs from the flat run:\n%s\n%s", e.Name, crashAt, a, f)
			}
		}
	}
}
