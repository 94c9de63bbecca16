// Command prepserve drives the asynchronous service front-end
// (internal/svc) with an open-loop heavy-traffic workload
// (internal/openloop): a large simulated client population submits
// operations on a Poisson arrival process with Zipfian key skew, periodic
// bursts and think times, and every completion's latency is measured from
// its arrival stamp — free of coordinated omission, so server stalls are
// charged to the percentiles.
//
// Two scenarios:
//
//	steady  the full schedule runs against an undisturbed machine;
//	crash   the whole machine freezes mid-load at -crash-at, the
//	        construction recovers, the (volatile) submission rings are
//	        rebuilt, and the load resumes: the in-flight window is
//	        deduplicated against recovery's operation descriptors where
//	        the construction records them (the PREP drivers — exactly
//	        once, duplicates_applied measured) and blindly retried where
//	        it does not, the outage window's arrivals are charged their
//	        full queueing delay, and the report carries the recovery
//	        stall window, backlog drain time and resolution tallies.
//
// -policy arms a fault adversary over the crash cut's unfenced lines
// (persistall, dropall, coinflip[=p], targeted[=n]). -check verifies every
// run for (buffered) durable linearizability — the crash epoch's in-flight
// operations held to their descriptor verdicts — and the process exits
// nonzero if any system fails it.
//
// Both scenarios run against all five recoverable constructions
// (PREP-Durable, PREP-Buffered, CX-PUC, SOFT, ONLL) unless -system narrows
// the set. -format json emits one machine-readable document with schema
// "prepuc-serve/v3".
//
// -instances S > 1 selects the sharded multi-instance deployment: S fully
// independent machines (each with its own scheduler, NVM, engine, rings and
// recovery state machine) behind a -route key-space router, with -shards
// read as the TOTAL worker count split evenly across machines — so a
// scaling sweep holds total resources fixed while varying S. The steady
// sharded matrix adds PREP-Volatile (the scaling headline's engine); the
// crash scenario crashes the -crash-shards subset of machines (default:
// all) while survivors keep serving, each crashed shard recovering
// independently. -j caps host-side parallelism across machine sub-runs;
// the document is byte-identical at any -j.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/harness"
	"prepuc/internal/openloop"
	"prepuc/internal/shard"
)

var (
	scenario = flag.String("scenario", "steady", "steady or crash")
	system   = flag.String("system", "all", strings.Join(drivers.Flags(drivers.All()), ", ")+" or all (the recoverable ones)")
	shards   = flag.Int("shards", 4, "submission rings / consumer threads (engine workers)")
	ringSize = flag.Uint64("ring", 1024, "per-shard ring capacity (power of two)")
	maxBatch = flag.Int("batch", 32, "max operations per combiner handoff")
	batched  = flag.Bool("batched", true, "use the batched submission path where the engine supports it")
	epsilon  = flag.Uint64("epsilon", 64, "PREP flush boundary increment ε")

	clients  = flag.Int("clients", 200_000, "simulated client population")
	keys     = flag.Uint64("keys", 1<<16, "key-space size")
	skew     = flag.Float64("skew", 1.2, "Zipf key-skew exponent (≤1: uniform)")
	readPct  = flag.Int("readpct", 80, "percentage of read-only operations")
	rate     = flag.Float64("rate", 4e6, "aggregate arrival rate (ops per virtual second)")
	duration = flag.Uint64("duration", 3_000_000, "schedule horizon in virtual ns")
	thinkNS  = flag.Uint64("think", 50_000, "per-client think time in virtual ns")
	burstEv  = flag.Uint64("burst-every", 500_000, "burst period in virtual ns (0: no bursts)")
	burstLen = flag.Uint64("burst-len", 100_000, "burst length in virtual ns")
	burstX   = flag.Float64("burst-factor", 4, "arrival-rate multiplier inside bursts")

	crashAt = flag.Uint64("crash-at", 0, "crash instant in virtual ns (0: duration/2; crash scenario only)")
	policy  = flag.String("policy", "", "crash-time fault adversary: persistall, dropall, coinflip[=p], targeted[=n] (empty: fence-accurate default)")
	check   = flag.Bool("check", false, "verify each run for (buffered) durable linearizability; exit 1 on failure")
	seed    = flag.Int64("seed", 1, "base seed")
	format  = flag.String("format", "table", "output format: table or json")
	outPath = flag.String("o", "", "write results to this file (default stdout)")

	instances   = flag.Int("instances", 1, "independent machines behind the router (>1: sharded mode; -shards becomes the total worker count)")
	route       = flag.String("route", "hash", "sharded key partitioning policy: hash or range")
	crashShards = flag.String("crash-shards", "", "comma-separated machine indices to crash in sharded crash runs (empty: all)")
	jobs        = flag.Int("j", 1, "host workers for sharded machine sub-runs (0: all cores; never affects output bytes)")
)

// ServeSchema identifies the machine-readable prepserve output format.
// v2 added the detectable-recovery fields to crash blocks (detectable,
// in_flight_resolved, resolved_completed, duplicates_applied), the fault
// "policy" and the optional per-system "check" block. v3 adds the sharded
// multi-instance mode: top-level instances/route/crash_shards, and — on
// sharded documents only — per-system route, imbalance, shards breakdowns
// and the composition verdict. Single-instance documents keep the v2 shape
// apart from the schema string; all v3 additions are strictly additive.
const ServeSchema = "prepuc-serve/v3"

// serveDoc is the whole run.
type serveDoc struct {
	Schema            string                 `json:"schema"`
	Scenario          string                 `json:"scenario"`
	Clients           int                    `json:"clients"`
	RateOpsPerSec     float64                `json:"rate_ops_per_sec"`
	DurationVirtualNS uint64                 `json:"duration_virtual_ns"`
	Shards            int                    `json:"shards"`
	Batched           bool                   `json:"batched"`
	Seed              int64                  `json:"seed"`
	Policy            string                 `json:"policy"`
	Check             bool                   `json:"check"`
	Instances         int                    `json:"instances,omitempty"`
	Route             string                 `json:"route,omitempty"`
	CrashShards       []int                  `json:"crash_shards,omitempty"`
	Systems           []*harness.ServeResult `json:"systems"`
}

// selectSystems resolves -system against the registry. A steady-only system
// (PREP-Volatile, the scaling headline's engine) cannot enter a crash
// scenario; "all" includes it on sharded steady runs only — flat documents
// keep the recoverable five, and take it on explicit selection so the
// sharded sweeps' single-machine baselines come from the same binary.
func selectSystems() ([]drivers.Entry, error) {
	var out []drivers.Entry
	var flags []string
	for _, sys := range drivers.All() {
		if sys.SteadyOnly && *scenario != "steady" {
			if *system == sys.Flag {
				return nil, fmt.Errorf("%s has no recovery path; steady scenario only", sys.Name)
			}
			continue
		}
		flags = append(flags, sys.Flag)
		if *system == sys.Flag || *system == "all" && (!sys.SteadyOnly || *instances > 1) {
			out = append(out, sys)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown system %q (want one of %v or all)", *system, flags)
	}
	return out, nil
}

// buildDoc runs the selected scenario against the selected systems under the
// current flag values and returns the document plus the number of failed
// linearize checks. Table-format rendering goes to progress as the runs
// finish.
func buildDoc(progress io.Writer) (*serveDoc, int, error) {
	cfg := harness.ServeConfig{
		Shards:   *shards,
		RingSize: *ringSize,
		MaxBatch: *maxBatch,
		Batched:  *batched,
		Seed:     *seed,
		Policy:   *policy,
		Check:    *check,
		Open: openloop.Config{
			Clients:      *clients,
			Keys:         *keys,
			KeySkew:      *skew,
			ReadPct:      *readPct,
			Rate:         *rate,
			DurationNS:   *duration,
			ThinkNS:      *thinkNS,
			BurstEveryNS: *burstEv,
			BurstLenNS:   *burstLen,
			BurstFactor:  *burstX,
			Seed:         *seed + 1000,
		},
	}
	if *scenario == "crash" {
		cfg.CrashAtNS = *crashAt
		if cfg.CrashAtNS == 0 {
			cfg.CrashAtNS = *duration / 2
		}
	}

	doc := &serveDoc{
		Schema: ServeSchema, Scenario: *scenario,
		Clients: *clients, RateOpsPerSec: *rate,
		DurationVirtualNS: *duration, Shards: *shards,
		Batched: *batched, Seed: *seed,
		Policy: *policy, Check: *check,
	}
	systems, err := selectSystems()
	if err != nil {
		return nil, 0, err
	}
	if *instances > 1 {
		return buildShardedDoc(progress, doc, cfg, systems)
	}
	failures := 0
	for _, sys := range systems {
		res, err := harness.RunServe(sys.New(harness.ServeSizing(*shards, *epsilon)), cfg)
		if err != nil {
			return nil, failures, err
		}
		doc.Systems = append(doc.Systems, res)
		if res.Check != nil && !res.Check.OK {
			failures++
		}
		if *format != "json" {
			printResult(progress, res)
		}
	}
	return doc, failures, nil
}

// buildShardedDoc runs the sharded multi-instance matrix: each selected
// system deployed as *instances independent machines with the total worker
// budget split evenly.
func buildShardedDoc(progress io.Writer, doc *serveDoc, cfg harness.ServeConfig, systems []drivers.Entry) (*serveDoc, int, error) {
	per := *shards / *instances
	scfg := harness.ShardedServeConfig{
		Instances: *instances, Route: *route, TotalWorkers: *shards,
		RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch, Batched: cfg.Batched,
		Open: cfg.Open, Seed: cfg.Seed, Policy: cfg.Policy, Check: cfg.Check,
		Jobs: *jobs,
	}
	if *scenario == "crash" {
		scfg.CrashAtNS = cfg.CrashAtNS
		set, err := shard.ParseSet(*crashShards, *instances)
		if err != nil {
			return nil, 0, err
		}
		if set == nil {
			for i := 0; i < *instances; i++ {
				set = append(set, i)
			}
		}
		scfg.CrashShards = set
		doc.CrashShards = set
	}
	doc.Instances = *instances
	doc.Route = *route

	failures := 0
	for _, sys := range systems {
		sys := sys
		res, err := harness.RunShardedServe(func() *harness.ServeDriver {
			return sys.New(harness.ServeSizing(per, *epsilon))
		}, scfg)
		if err != nil {
			return nil, failures, err
		}
		doc.Systems = append(doc.Systems, res)
		if res.Check != nil && !res.Check.OK {
			failures++
		}
		if *format != "json" {
			printResult(progress, res)
		}
	}
	return doc, failures, nil
}

func main() {
	flag.Parse()
	if *scenario != "steady" && *scenario != "crash" {
		fmt.Fprintf(os.Stderr, "prepserve: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prepserve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	progress := out
	if *format == "json" {
		progress = io.Discard
	}
	doc, failures, err := buildDoc(progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prepserve: %v\n", err)
		os.Exit(1)
	}
	if *format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "prepserve: %v\n", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "prepserve: %d system(s) failed the linearize check\n", failures)
		os.Exit(1)
	}
}

// printResult renders one system's record as the human table.
func printResult(w io.Writer, r *harness.ServeResult) {
	fmt.Fprintf(w, "%-14s  %9.0f ops/s  completed=%d/%d\n",
		r.System, r.OpsPerSec, r.Completed, r.Submitted)
	fmt.Fprintf(w, "  latency(ns): p50=%d p99=%d p999=%d max=%d mean=%.0f\n",
		r.Latency.P50, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Latency.Mean)
	if r.Ring.Batches > 0 {
		fmt.Fprintf(w, "  ring: submits=%d full_stalls=%d mean_batch=%.1f\n",
			r.Ring.Submits, r.Ring.FullStalls, r.Ring.MeanBatch)
	} else {
		fmt.Fprintf(w, "  ring: submits=%d full_stalls=%d (per-op path)\n",
			r.Ring.Submits, r.Ring.FullStalls)
	}
	if c := r.Crash; c != nil {
		fmt.Fprintf(w, "  crash@%d: recovery=%.3fms(virtual) replayed=%d stall=%.3fms lost_inflight=%d backlog=%d drain=%.3fms\n",
			c.CrashAtNS, float64(c.RecoveryVirtualNS)/1e6, c.Replayed,
			float64(c.StallNS)/1e6, c.LostInflight, c.BacklogAtResume,
			float64(c.BacklogDrainNS)/1e6)
		if c.Detectable {
			fmt.Fprintf(w, "  detect: in_flight_resolved=%d resolved_completed=%d duplicates_applied=%d\n",
				c.InFlightResolved, c.ResolvedCompleted, *c.DuplicatesApplied)
		}
	}
	if cb := r.Check; cb != nil {
		if cb.OK {
			fmt.Fprintf(w, "  check: %s ok epochs=%d ops=%d lost=%d committed=%d never=%d\n",
				cb.Mode, cb.Epochs, cb.Ops, cb.Lost, cb.InFlightCommitted, cb.InFlightNever)
		} else {
			fmt.Fprintf(w, "  check: %s FAILED epoch=%d %s: %s\n",
				cb.Mode, cb.FailedEpoch, cb.FailedPartition, cb.Reason)
		}
	}
	if len(r.Shards) > 0 {
		fmt.Fprintf(w, "  sharded: route=%s imbalance=%.2f\n", r.Route, r.Imbalance)
		for _, sh := range r.Shards {
			mark := ""
			if sh.Crashed {
				mark = " crashed"
			}
			fmt.Fprintf(w, "    shard %d: %9.0f ops/s completed=%d/%d%s\n",
				sh.Shard, sh.Result.OpsPerSec, sh.Result.Completed, sh.Result.Submitted, mark)
		}
		if c := r.Composition; c != nil {
			verdict := "ok"
			if !c.OK {
				verdict = "FAILED: " + c.Reason + c.UnionReason
			}
			fmt.Fprintf(w, "    composition: %s (ops_audited=%d keys_probed=%d union=%v)\n",
				verdict, c.OpsAudited, c.KeysProbed, c.UnionChecked)
		}
	}
}
