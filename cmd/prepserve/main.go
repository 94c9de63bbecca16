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
//	crash   the whole machine freezes mid-load at the virtual instant
//	        -crash-ns, the construction recovers, the (volatile)
//	        submission rings are rebuilt, and the load resumes: the
//	        in-flight window is deduplicated against recovery's
//	        operation descriptors where the construction records them
//	        (the PREP drivers — exactly once, duplicates_applied
//	        measured) and blindly retried where it does not, the outage
//	        window's arrivals are charged their full queueing delay, and
//	        the report carries the recovery stall window, backlog drain
//	        time and resolution tallies.
//
// -policy arms a fault adversary over the crash cut's unfenced lines
// (persistall, dropall, coinflip[=p], targeted[=n]). -check verifies every
// run for (buffered) durable linearizability — the crash epoch's in-flight
// operations held to their descriptor verdicts. A system that fails it, or
// reports duplicates_applied > 0, prints a one-line repro on stderr: the
// run's flags that differ from their defaults, -system narrowed to it.
//
// Both scenarios run against all five recoverable constructions
// (PREP-Durable, PREP-Buffered, CX-PUC, SOFT, ONLL) unless -system narrows
// the set. -format json emits one machine-readable document with schema
// "prepuc-serve/v4".
//
// Every run is one harness.RunShardedServe over -instances S fully
// independent machines (each with its own scheduler, NVM, engine, rings and
// recovery state machine) behind a -route key-space router, with -workers
// the TOTAL worker count split evenly across machines — so a
// scaling sweep holds total resources fixed while varying S. S = 1, the
// default, is the one machine: its record is the machine's own, and the
// document carries no sharded fields. At S > 1 the steady matrix adds
// PREP-Volatile (the scaling headline's engine); the crash scenario crashes
// the -crash-shards subset of machines (default: all) while survivors keep
// serving, each crashed shard recovering independently. -j caps host-side
// parallelism across machine sub-runs; the document is byte-identical at
// any -j.
//
// Exit status (runflag.Main): 0 every system passed, 1 a system failed its
// check or applied a duplicate, or the run could not be carried out (a
// -crash-ns past the drained load among them), 2 a runflag.UsageError.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/harness"
	"prepuc/internal/runflag"
	"prepuc/internal/shard"
	"prepuc/internal/uc"
)

// run is one prepserve run, its output aside: every flag but -format and -o
// is declared by run.Flags. The crashed machines are parsed by validate; the
// crash instant and the schedule's seed depend on other flags and are filled
// in by buildDoc.
type run struct {
	load                          harness.ShardedServeConfig // the deployment and arrival schedule
	scenario, system, crashShards string
	epsilon, crashNS              uint64
}

// Flags declares r's flags on fs, with prepserve's defaults.
func (r *run) Flags(fs *flag.FlagSet) {
	l := &r.load
	fs.IntVar(&l.TotalWorkers, "workers", 4, "total engine workers: submission rings / consumer threads, split evenly across -instances")
	fs.Uint64Var(&l.RingSize, "ring", 1024, "per-worker ring capacity (power of two)")
	fs.IntVar(&l.MaxBatch, "batch", 32, "max operations per combiner handoff")
	fs.BoolVar(&l.Batched, "batched", true, "use the batched submission path where the engine supports it")
	fs.IntVar(&l.Open.Clients, "clients", 200_000, "simulated client population")
	fs.Uint64Var(&l.Open.Keys, "keys", 1<<16, "key-space size")
	fs.Float64Var(&l.Open.KeySkew, "skew", 1.2, "Zipf key-skew exponent (≤1: uniform)")
	fs.IntVar(&l.Open.ReadPct, "readpct", 80, "percentage of read-only operations")
	fs.Float64Var(&l.Open.Rate, "rate", 4e6, "aggregate arrival rate (ops per virtual second)")
	fs.Uint64Var(&l.Open.DurationNS, "duration", 3_000_000, "schedule horizon in virtual ns")
	fs.Uint64Var(&l.Open.ThinkNS, "think", 50_000, "per-client think time in virtual ns")
	fs.Uint64Var(&l.Open.BurstEveryNS, "burst-every", 500_000, "burst period in virtual ns (0: no bursts)")
	fs.Uint64Var(&l.Open.BurstLenNS, "burst-len", 100_000, "burst length in virtual ns")
	fs.Float64Var(&l.Open.BurstFactor, "burst-factor", 4, "arrival-rate multiplier inside bursts")
	fs.StringVar(&l.Policy, "policy", "", "crash-time fault adversary: persistall, dropall, coinflip[=p], targeted[=n] (empty: fence-accurate default)")
	fs.BoolVar(&l.Check, "check", false, "verify each run for (buffered) durable linearizability; exit 1 on failure")
	fs.Int64Var(&l.Seed, "seed", 1, "base seed")
	fs.IntVar(&l.Instances, "instances", 1, "independent machines behind the router (>1: sharded mode)")
	fs.StringVar(&l.Route, "route", defaultRoute, "sharded key partitioning policy: hash or range")
	fs.IntVar(&l.Jobs, "j", 1, "host workers for sharded machine sub-runs (0: all cores; never affects output bytes)")
	fs.StringVar(&r.scenario, "scenario", "steady", "steady or crash")
	fs.StringVar(&r.system, "system", "all", strings.Join(drivers.Flags(drivers.All()), ", ")+" or all (the recoverable ones)")
	fs.Uint64Var(&r.epsilon, "epsilon", 64, "PREP flush boundary increment ε")
	fs.Uint64Var(&r.crashNS, "crash-ns", 0, "crash instant in virtual ns (0: duration/2; crash scenario only)")
	fs.StringVar(&r.crashShards, "crash-shards", "", "comma-separated machine indices to crash in sharded crash runs (empty: all)")
}

// cfg is the run the command line describes.
var cfg run

var (
	format  = flag.String("format", "table", "output format: table or json")
	outPath = flag.String("o", "", "write results to this file (default stdout)")
)

func init() { cfg.Flags(flag.CommandLine) }

// defaultRoute is -route's default; validate tells a set flag by it.
const defaultRoute = "hash"

// ServeSchema identifies the machine-readable prepserve output format.
// v2 added the detectable-recovery fields to crash blocks (detectable,
// in_flight_resolved, resolved_completed, duplicates_applied), the fault
// "policy" and the optional per-system "check" block. v3 adds the sharded
// multi-instance mode: top-level instances/route/crash_shards, and — on
// sharded documents only — per-system route, imbalance, shards breakdowns
// and the composition verdict. v4 adds the "metrics" block — the machine's
// whole metrics.Snapshot, the block a prepuc-bench point carries — to every
// record, per-machine and aggregate. Every addition is strictly additive.
const ServeSchema = "prepuc-serve/v4"

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
func (r *run) selectSystems() ([]drivers.Entry, error) {
	candidates := drivers.All()
	if r.scenario != "steady" {
		if e, err := drivers.Lookup(candidates, r.system); err == nil && e.SteadyOnly {
			return nil, runflag.Usage(fmt.Errorf("%s has no recovery path; steady scenario only", e.Name))
		}
		candidates = drivers.Recoverable()
	}
	if r.system != "all" {
		e, err := drivers.Lookup(candidates, r.system)
		if err != nil {
			return nil, runflag.Usage(fmt.Errorf("%w or all", err))
		}
		return []drivers.Entry{e}, nil
	}
	if r.load.Instances > 1 {
		return candidates, nil
	}
	return drivers.Recoverable(), nil
}

// buildDoc runs r's scenario against systems and returns the document plus
// the repro line of each failed system. Table-format rendering goes to
// progress as the runs finish.
func (r *run) buildDoc(progress io.Writer, systems []drivers.Entry) (*serveDoc, []string, error) {
	sc := r.load
	sc.Open.Seed = sc.Seed + 1000
	if r.scenario == "crash" {
		sc.CrashAtNS = r.crashNS
		if sc.CrashAtNS == 0 {
			sc.CrashAtNS = sc.Open.DurationNS / 2
		}
	}

	doc := &serveDoc{
		Schema: ServeSchema, Scenario: r.scenario,
		Clients: sc.Open.Clients, RateOpsPerSec: sc.Open.Rate,
		DurationVirtualNS: sc.Open.DurationNS, Shards: sc.TotalWorkers,
		Batched: sc.Batched, Seed: sc.Seed,
		Policy: sc.Policy, Check: sc.Check,
	}
	if r.scenario == "crash" && sc.CrashShards == nil { // default: every machine
		for i := 0; i < sc.Instances; i++ {
			sc.CrashShards = append(sc.CrashShards, i)
		}
	}
	if sc.Instances > 1 {
		doc.Instances, doc.Route, doc.CrashShards = sc.Instances, sc.Route, sc.CrashShards
	}
	var repros []string
	for _, sys := range systems {
		res, err := harness.RunShardedServe(func() *uc.Driver {
			return sys.New(harness.ServeSizing(sc.TotalWorkers/sc.Instances, r.epsilon))
		}, sc)
		if err != nil {
			return nil, repros, err
		}
		doc.Systems = append(doc.Systems, res)
		if failed(res) {
			narrowed := *r
			narrowed.system = sys.Flag
			repros = append(repros, runflag.Line("prepserve", narrowed))
		}
		if *format != "json" {
			printResult(progress, res)
		}
	}
	return doc, repros, nil
}

// failed is the verdict a record carries against the run: a linearize check
// that did not pass, or a crash resume that resubmitted an operation recovery
// had proved committed (a double apply).
func failed(r *harness.ServeResult) bool {
	return r.Check != nil && !r.Check.OK ||
		r.Crash != nil && r.Crash.DuplicatesApplied != nil && *r.Crash.DuplicatesApplied > 0
}

// validate refuses what only the command line knows, naming the flag: an
// output format nothing renders, an unknown scenario, and sharding flags on a
// single machine, where they would be silently ignored; harness.RunShardedServe
// refuses the rest. It parses -crash-shards into r.load.CrashShards (nil
// outside the crash scenario, or for the default of every machine).
func (r *run) validate() error {
	l := &r.load
	var err error
	switch {
	case *format != "table" && *format != "json":
		err = fmt.Errorf("-format=%s: want table or json", *format)
	case r.scenario != "steady" && r.scenario != "crash":
		err = fmt.Errorf("unknown scenario %q", r.scenario)
	case l.Instances == 1 && r.crashShards != "":
		err = fmt.Errorf("-crash-shards=%s needs -instances > 1", r.crashShards)
	case l.Instances == 1 && l.Route != defaultRoute:
		err = fmt.Errorf("-route=%s needs -instances > 1", l.Route)
	}
	l.CrashShards = nil
	if err == nil && r.scenario == "crash" {
		if l.CrashShards, err = shard.ParseSet(r.crashShards); err != nil {
			err = fmt.Errorf("-crash-shards=%s: %w", r.crashShards, err)
		}
	}
	return runflag.Usage(err)
}

func main() { runflag.Main("prepserve", cfg.serve) }

// serve is main's run: validate, select, buildDoc, then the document and
// each failed system's repro line.
func (r *run) serve() error {
	if err := r.validate(); err != nil {
		return err
	}
	systems, err := r.selectSystems()
	if err != nil {
		return err
	}

	// The -o file is written once the run returns, so a configuration
	// harness.RunShardedServe refuses leaves none behind; a run that fails
	// still leaves what it rendered.
	var buf bytes.Buffer
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		out = &buf
	}
	progress := out
	if *format == "json" {
		progress = io.Discard
	}
	doc, repros, err := r.buildDoc(progress, systems)
	if errors.As(err, new(runflag.UsageError)) {
		return err
	}
	if err == nil && *format == "json" {
		err = harness.WriteJSON(out, doc)
	}
	if *outPath != "" {
		if werr := os.WriteFile(*outPath, buf.Bytes(), 0o666); err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	for _, line := range repros {
		fmt.Fprintf(os.Stderr, "prepserve: repro: %s\n", line)
	}
	if len(repros) > 0 {
		return fmt.Errorf("%d system(s) failed the linearize check or applied a duplicate", len(repros))
	}
	return nil
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
