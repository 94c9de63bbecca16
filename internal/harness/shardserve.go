package harness

// shardserve.go is the serve path's entry point, RunShardedServe: S fully
// independent PREP machines — each with its own scheduler, NVM system,
// engine, rings and recovery state machine — behind one key-space router.
// One global open-loop arrival schedule is partitioned by shard.Router at
// submission time (routing is a pure function of the op's key; the harness
// splits once, by machine and ring), each machine runs the single-machine
// serve harness (serve.go) over its per-ring schedules, and the harness
// aggregates: throughput against the latest completion instant across
// machines, one merged latency histogram, ring counters via
// metrics.Snapshot.Add. S = 1 is one machine and nothing more: the schedule
// splits by ring alone, and the run's record is the machine's own, with no
// aggregate, breakdown or composition audit around it.
//
// Machines fail independently. CrashShards names the subset whose sub-run
// arms the crash-and-recover scenario; survivors run their load start to
// finish uninterrupted — there is no global freeze, because each machine
// owns a private sim.Scheduler and the crash its CrashAtInstant arms
// unwinds only that machine's threads. Each crashed shard reports its own
// recovery stall and backlog drain, and the aggregate crash block
// sums/maxes them.
//
// Checking composes per-machine verdicts: every machine's history passes
// its own CheckEpoch (steady or two-epoch crash check, per the
// single-machine harness), and linearize.CheckComposition audits the
// routing invariant — no op recorded against shard s keys to shard t, no
// key in shard s's probed state belongs to shard t. On fully steady runs a
// union epoch re-checks all machines' completed operations against the
// merged final state, which is sound despite per-machine virtual clocks:
// the checker partitions by key, every key's sub-history lives inside one
// machine's coherent timeline, and set semantics impose no cross-key
// ordering obligation.
//
// Determinism: each machine's sub-run seeds its substrate RNG and fault
// policy from its own slot (Seed + shardIdx*1009) and writes into its own
// result index, so the document is byte-identical at any host parallelism
// (-j).

import (
	"fmt"

	"prepuc/internal/linearize"
	"prepuc/internal/metrics"
	"prepuc/internal/openloop"
	"prepuc/internal/par"
	"prepuc/internal/shard"
	"prepuc/internal/uc"
)

// ShardedServeConfig parameterizes one service run on Instances machines.
type ShardedServeConfig struct {
	// Instances is S, the number of independent machines.
	Instances int
	// Route selects the partitioning policy ("hash" or "range").
	Route string
	// TotalWorkers is the total consumer-ring count across all machines; it
	// must divide evenly so scaling runs compare fixed total resources.
	TotalWorkers int
	// RingSize, MaxBatch, Batched, Open, Seed, Policy, Check mirror
	// ServeConfig, applied per machine (Open is partitioned, not copied).
	RingSize uint64
	MaxBatch int
	Batched  bool
	Open     openloop.Config
	Seed     int64
	Policy   string
	Check    bool
	// CrashAtNS with CrashShards arms the crash scenario on exactly that
	// subset of machines; the rest run steady.
	CrashAtNS   uint64
	CrashShards []int
	// Jobs caps host-side parallelism across machine sub-runs (par.Jobs).
	Jobs int
}

// ShardServeResult is one machine's record inside a sharded run.
type ShardServeResult struct {
	Shard    int          `json:"shard"`
	Workers  int          `json:"workers"`
	Crashed  bool         `json:"crashed"`
	Arrivals uint64       `json:"arrivals"`
	Result   *ServeResult `json:"result"`
}

// CompositionStats is the cross-shard composition verdict: the
// linearize.CheckComposition audit plus, on fully steady runs, the union
// epoch over all machines' completed operations.
type CompositionStats struct {
	linearize.CompositionResult
	UnionChecked bool   `json:"union_checked"`
	UnionOps     int    `json:"union_ops,omitempty"`
	UnionReason  string `json:"union_reason,omitempty"`
}

// subSeedStride separates consecutive machines' seed spaces: the
// single-machine harness derives its substrate and fault-policy seeds within
// +0..+11 of its base.
const subSeedStride = 1009

// RunShardedServe executes one service run: mk builds a fresh driver per
// machine (never share driver instances across machines), cfg says how many
// machines, how to partition and what to crash. Over several machines the
// returned aggregate record carries the per-machine breakdowns under Shards;
// one machine's run returns that machine's record, and its error, as they
// are.
func RunShardedServe(mk func() *uc.Driver, cfg ShardedServeConfig) (*ServeResult, error) {
	if cfg.Instances <= 0 {
		return nil, fmt.Errorf("sharded serve: Instances must be positive, got %d", cfg.Instances)
	}
	per := cfg.TotalWorkers / cfg.Instances
	if per <= 0 || per*cfg.Instances != cfg.TotalWorkers {
		return nil, fmt.Errorf("sharded serve: TotalWorkers %d does not divide across %d instances",
			cfg.TotalWorkers, cfg.Instances)
	}
	if err := checkBatch(cfg.Batched, cfg.MaxBatch); err != nil {
		return nil, err
	}
	pol, err := shard.ParsePolicy(cfg.Route)
	if err != nil {
		return nil, err
	}
	crashed := make([]bool, cfg.Instances)
	for _, s := range cfg.CrashShards {
		if s < 0 || s >= cfg.Instances {
			return nil, fmt.Errorf("sharded serve: crash shard %d out of range [0,%d)", s, cfg.Instances)
		}
		crashed[s] = true
	}
	if (len(cfg.CrashShards) > 0) != (cfg.CrashAtNS > 0) {
		return nil, fmt.Errorf("sharded serve: CrashShards and CrashAtNS must be set together")
	}

	arrivals, err := openloop.Generate(cfg.Open)
	if err != nil {
		return nil, err
	}
	// One split, by (machine, ring): machine i's rings are the consecutive
	// run rings[i*per:(i+1)*per], each the stable sub-schedule the router
	// followed by the machine's own client sharding would deliver. The split
	// reorders the generated schedule in place, so no arrival is copied after
	// generation and every machine reads its own sub-slices of the one
	// array. One machine's split is by ring alone: no arrival asks the router.
	var router *shard.Router
	ring := func(a *openloop.Arrival) int { return ringOf(a, per) }
	if cfg.Instances > 1 {
		if router, err = shard.NewRouter(pol, cfg.Instances, cfg.Open.Keys); err != nil {
			return nil, err
		}
		ring = func(a *openloop.Arrival) int { return router.RouteOp(a.Op())*per + ringOf(a, per) }
	}
	rings := openloop.Split(arrivals, cfg.Instances*per, ring)

	// Every machine runs independently; slot i owns all of machine i's
	// state, so completion order across host goroutines never shows.
	subRes := make([]*ServeResult, cfg.Instances)
	subRun := make([]*serveRun, cfg.Instances)
	subErr := make([]error, cfg.Instances)
	par.Do(par.Jobs(cfg.Jobs), cfg.Instances, func(i int) {
		sub := ServeConfig{
			Shards: per, RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch,
			Batched: cfg.Batched, Open: cfg.Open,
			Seed: cfg.Seed + int64(i)*subSeedStride, Policy: cfg.Policy,
			Check: cfg.Check,
		}
		if crashed[i] {
			sub.CrashAtNS = cfg.CrashAtNS
		}
		subRes[i], subRun[i], subErr[i] = runServeArrivals(mk(), sub, rings[i*per:(i+1)*per])
	})
	if cfg.Instances == 1 {
		return subRes[0], subErr[0]
	}
	for i, e := range subErr {
		if e != nil {
			return nil, fmt.Errorf("sharded serve: shard %d: %w", i, e)
		}
	}

	agg := &ServeResult{System: subRes[0].System, Route: cfg.Route}
	var hist openloop.Histogram
	var endNS uint64
	var snap metrics.Snapshot
	var maxCompleted uint64
	for i := 0; i < cfg.Instances; i++ {
		r, run := subRes[i], subRun[i]
		agg.Submitted += r.Submitted
		agg.Completed += r.Completed
		if r.Completed > maxCompleted {
			maxCompleted = r.Completed
		}
		hist.Merge(&run.ta.hist)
		if run.ta.endNS > endNS {
			endNS = run.ta.endNS
		}
		snap = snap.Add(r.Metrics)
		agg.Shards = append(agg.Shards, &ShardServeResult{
			Shard: i, Workers: per, Crashed: crashed[i],
			Arrivals: uint64(scheduledOn(run.perShard)), Result: r,
		})
	}
	// Aggregate throughput is total completions over the longest machine's
	// run: the deployment is only as finished as its slowest shard, so
	// hot-shard imbalance shows up here, not just in Imbalance.
	agg.summarize(&hist, endNS, snap)
	if agg.Completed > 0 {
		agg.Imbalance = float64(maxCompleted) * float64(cfg.Instances) / float64(agg.Completed)
	}
	if len(cfg.CrashShards) > 0 {
		agg.Crash = aggregateCrash(subRes, crashed)
	}
	if cfg.Check {
		agg.Check, agg.Composition = shardedCheck(cfg, router, per, subRes, subRun, crashed)
	}
	return agg, nil
}

// aggregateCrash folds the crashed machines' recovery economics into one
// block: additive tallies sum, duration-like fields take the worst shard.
func aggregateCrash(subRes []*ServeResult, crashed []bool) *CrashStats {
	agg := &CrashStats{Detectable: true}
	var dup uint64
	detectable := true
	for i, r := range subRes {
		if !crashed[i] || r.Crash == nil {
			continue
		}
		c := r.Crash
		agg.CrashAtNS = c.CrashAtNS
		if c.RecoveryVirtualNS > agg.RecoveryVirtualNS {
			agg.RecoveryVirtualNS = c.RecoveryVirtualNS
		}
		if c.StallNS > agg.StallNS {
			agg.StallNS = c.StallNS
		}
		if c.BacklogDrainNS > agg.BacklogDrainNS {
			agg.BacklogDrainNS = c.BacklogDrainNS
		}
		agg.Replayed += c.Replayed
		agg.LostInflight += c.LostInflight
		agg.BacklogAtResume += c.BacklogAtResume
		agg.InFlightResolved += c.InFlightResolved
		agg.ResolvedCompleted += c.ResolvedCompleted
		if c.Detectable && c.DuplicatesApplied != nil {
			dup += *c.DuplicatesApplied
		} else {
			detectable = false
		}
	}
	agg.Detectable = detectable
	if detectable {
		agg.DuplicatesApplied = &dup
	}
	return agg
}

// shardedCheck composes the per-machine verdicts and runs the cross-shard
// audits. Per-machine epoch checks already ran inside runServeArrivals;
// here their stats fold together, the routing invariant is audited from
// the recorded data, and — when no machine crashed — a union epoch
// re-checks everything against the merged final state.
func shardedCheck(cfg ShardedServeConfig, router *shard.Router, per int,
	subRes []*ServeResult, subRun []*serveRun, crashed []bool) (*CheckStats, *CompositionStats) {
	cb := &CheckStats{Mode: "linearize", OK: true, FailedEpoch: -1}
	for i, r := range subRes {
		c := r.Check
		cb.Epochs += c.Epochs
		cb.Ops += c.Ops
		cb.Lost += c.Lost
		cb.InFlightCommitted += c.InFlightCommitted
		cb.InFlightNever += c.InFlightNever
		if cb.OK && !c.OK {
			cb.OK = false
			cb.FailedEpoch = c.FailedEpoch
			cb.FailedPartition = c.FailedPartition
			cb.Reason = fmt.Sprintf("shard %d: %s", i, c.Reason)
		}
	}

	// Routing audit: every machine's full recorded traffic (the per-ring
	// schedules it was handed — completed, in-flight and never-drained
	// alike) plus its probed final state.
	anyCrashed := false
	histories := make([]linearize.ShardHistory, len(subRun))
	var unionOps []linearize.Op
	unionFinal := map[uint64]uint64{}
	for i, run := range subRun {
		sh := linearize.ShardHistory{Shard: i}
		for _, arr := range run.perShard {
			for _, a := range arr {
				sh.Ops = append(sh.Ops, linearize.Op{Client: i, Code: uint64(a.Code), A0: a.A0})
			}
		}
		sh.Final = run.final
		histories[i] = sh
		if crashed[i] {
			anyCrashed = true
			continue
		}
		// Steady machines contribute to the union epoch: completed records
		// zip with the per-ring arrival order, clients offset per machine.
		ops := completedEpoch(run.perShard, run.ta.rec[0])
		for j := range ops {
			ops[j].Client += i * per
		}
		unionOps = append(unionOps, ops...)
		for k, v := range sh.Final {
			unionFinal[k] = v
		}
	}
	comp := &CompositionStats{
		CompositionResult: linearize.CheckComposition(router.Route, histories),
	}
	if !anyCrashed {
		comp.UnionChecked = true
		comp.UnionOps = len(unionOps)
		if r := linearize.CheckEpoch(linearize.SetModel(), nil, unionOps, unionFinal, linearize.Options{}); !r.OK {
			comp.OK = false
			comp.UnionReason = fmt.Sprintf("union epoch: %s: %s", r.FailedPartition, r.Reason)
		}
	}
	if cb.OK && !comp.OK {
		cb.OK = false
		cb.Reason = "cross-shard composition failed"
	}
	return cb, comp
}
