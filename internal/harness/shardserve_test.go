package harness

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/openloop"
	"prepuc/internal/runflag"
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

// TestShardedServeConfigValidation: RunShardedServe refuses what no machine
// can run — its own fields, the arrival schedule's, and a geometry a machine
// refuses at its boot — as a runflag.UsageError naming the field, before any
// load runs. These are the refusals prepserve used to copy into its flag
// checks, or missed and exited 1 on as a failed run.
func TestShardedServeConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*ShardedServeConfig)
		mk   func() *ServeDriver
		want string
	}{
		{"no instances", func(c *ShardedServeConfig) { c.Instances = 0 }, nil, "Instances must be positive, got 0"},
		{"negative instances", func(c *ShardedServeConfig) { c.Instances = -2 }, nil, "Instances must be positive, got -2"},
		{"uneven split", func(c *ShardedServeConfig) { c.TotalWorkers = 3 }, nil, "TotalWorkers 3 does not divide across 4"},
		{"no workers", func(c *ShardedServeConfig) { c.TotalWorkers = 0 }, nil, "TotalWorkers 0"},
		{"batch past MaxBatch", func(c *ShardedServeConfig) { c.MaxBatch = core.MaxBatch + 1 }, nil, "MaxBatch 65"},
		{"no batch", func(c *ShardedServeConfig) { c.MaxBatch = 0 }, nil, "MaxBatch 0"},
		{"unknown route", func(c *ShardedServeConfig) { c.Route = "modulo" }, nil, "modulo"},
		{"crash shard past the machines", func(c *ShardedServeConfig) { c.CrashShards, c.CrashAtNS = []int{4}, 1 }, nil, "CrashShards index 4 out of range [0,4)"},
		{"negative crash shard", func(c *ShardedServeConfig) { c.CrashShards, c.CrashAtNS = []int{-1}, 1 }, nil, "CrashShards index -1"},
		{"crash shards without an instant", func(c *ShardedServeConfig) { c.CrashShards = []int{1} }, nil, "CrashShards and CrashAtNS"},
		{"instant without crash shards", func(c *ShardedServeConfig) { c.CrashAtNS = 200_000 }, nil, "CrashShards and CrashAtNS"},
		{"read share", func(c *ShardedServeConfig) { c.Open.ReadPct = 150 }, nil, "ReadPct must be in [0, 100], got 150"},
		{"no clients", func(c *ShardedServeConfig) { c.Open.Clients = 0 }, nil, "Clients must be positive, got 0"},
		{"unknown policy", func(c *ShardedServeConfig) { c.Policy = "sometimes" }, nil, "sometimes"},
		{"ring not a power of two", func(c *ShardedServeConfig) { c.RingSize = 1000 }, nil, "RingSize must be a power of two, got 1000"},
		{"no epsilon", func(*ShardedServeConfig) {}, func() *ServeDriver { return ServeDrivers(1, 0)[0] }, "Epsilon required"},
		{"crash without recovery", func(c *ShardedServeConfig) { c.CrashShards, c.CrashAtNS = []int{0}, 200_000 },
			func() *ServeDriver {
				e, _ := drivers.Lookup(drivers.All(), "prep-volatile")
				return e.New(ServeSizing(1, 64))
			}, "no recovery path"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardedTestConfig(4, 0, nil)
			tc.mut(&cfg)
			mk := tc.mk
			if mk == nil {
				mk = durableFactory(1)
			}
			_, err := RunShardedServe(mk, cfg)
			if !errors.As(err, new(runflag.UsageError)) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want a usage error naming %q", err, tc.want)
			}
		})
	}
}

// TestShardedServeOneInstanceEqualsFlat pins the S=1 case: prepserve's
// one-machine configuration of RunShardedServe — route hash, crash set {0},
// every ring on the one machine — returns RunServe's record field for field,
// steady and crash, checked, under the targeted adversary. One machine is
// its own record: no route, imbalance, breakdown or composition audit.
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
			one, err := RunShardedServe(mk, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, flat) {
				o, _ := json.Marshal(one)
				f, _ := json.Marshal(flat)
				t.Errorf("%s crash@%d: the S=1 record differs from the flat run:\n%s\n%s", e.Name, crashAt, o, f)
			}
		}
	}
}
