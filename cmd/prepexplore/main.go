// Command prepexplore runs the bounded exhaustive explorer
// (internal/explore): for a tiny configuration it model-checks the recovery
// protocol over every schedule (up to DPOR equivalence), every crash-point
// equivalence class, every persist-subset materialization, and — at -depth 2
// — every persist-relevant crash inside recovery itself, adjudicating
// durable linearizability at every leaf.
//
// The default mode explores and emits one JSON document (schema
// "prepuc-explore/v1") on stdout or -o; the exit status is 1 when any leaf
// produced a counterexample, so CI can gate on it directly. Every
// counterexample carries a one-line repro invocation built from the
// -repro-* flags:
//
//	prepexplore -system=prep-durable -workers=2 -ops=3 -seed=1 \
//	    -repro-schedule=1,0,0 -repro-crash-at=63 -repro-mask=0x2
//
// replays exactly that leaf (forced dispatch prefix, crash event threshold,
// persist mask, optional nested pair) and re-adjudicates it, printing the
// verdict. -repro-schedule= (present but empty) names the root
// minimum-clock schedule. The report is deterministic: invariant across
// hosts, runs, and -j, except the wall_ms field (dropped with -strip-wall).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/explore"
)

var (
	system   = flag.String("system", "prep-durable", "construction: "+strings.Join(drivers.Flags(drivers.Recoverable()), ", "))
	workers  = flag.Int("workers", 2, "concurrent workload clients")
	ops      = flag.Int("ops", 3, "workload operations, round-robined over the workers")
	prefill  = flag.Int("prefill", 0, "keys inserted (and checkpointed) before the explored epoch")
	seed     = flag.Int64("seed", 1, "base seed for every scheduler and substrate RNG")
	jobs     = flag.Int("j", 0, "host-side parallelism (0 = GOMAXPROCS; the report is invariant under -j)")
	depth    = flag.Int("depth", 1, "crash nesting depth: 2 also crashes each recovery at its persist-relevant points")
	detect   = flag.Bool("detect", false, "detectable execution: adjudicate crash-cut ops as InFlightCommitted/InFlightNever (PREP only)")
	bg       = flag.Uint64("bg", 0, "background write-back rate: one-in-N chance per NVM store (0: off)")
	rounds   = flag.Int("rounds", 0, "DPOR delay bound in BFS rounds (0: default 3; negative: unbounded)")
	maskBits = flag.Int("mask-bits", 0, "exhaustive persist-mask limit: crashes with <= N pending lines branch over all 2^N subsets (0: default 10)")
	maxSched = flag.Int("max-schedules", 0, "schedule-prefix execution budget (0: default 4096)")
	maxCrash = flag.Int("max-crash-points", 0, "sample at most N crash classes per schedule (0: all)")
	maxNest  = flag.Int("max-nested", 0, "sample at most N nested crash points per mask branch (0: depth-2 default 2; negative: all)")
	maxEvts  = flag.Uint64("max-events", 0, "per-execution event guard against non-quiescing runs (0: default 5e6)")
	nodes    = flag.Int("nodes", 0, "NUMA nodes (0: default 2)")
	eps      = flag.Uint64("eps", 0, "PREP flush boundary increment ε (0: default 8)")
	logSize  = flag.Uint64("log", 0, "shared log entries (0: default 64)")
	heap     = flag.Uint64("heap", 0, "persistent heap words (0: default 4096)")
	outPath  = flag.String("o", "", "write the JSON report to this file (default stdout)")
	stripW   = flag.Bool("strip-wall", false, "zero the wall_ms field (byte-identical reports across runs)")

	reproSched  = flag.String("repro-schedule", "", "repro mode: forced dispatch prefix, comma-separated thread ids (empty value = root schedule)")
	reproCrash  = flag.Uint64("repro-crash-at", 0, "repro mode: crash event threshold (0: crash-free completion leaf)")
	reproMask   = flag.String("repro-mask", "0x0", "repro mode: persist mask, hex")
	reproNestAt = flag.Uint64("repro-nested-at", 0, "repro mode: nested crash event inside recovery (0: depth 1)")
	reproNestMk = flag.String("repro-nested-mask", "0x0", "repro mode: nested persist mask, hex")
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prepexplore:", err)
	os.Exit(2)
}

func config() explore.Config {
	return explore.Config{
		System: *system, Workers: *workers, Ops: *ops, PrefillN: *prefill,
		Seed: *seed, Jobs: *jobs, Depth: *depth, Detect: *detect,
		BGFlushOneIn: *bg, MaskBits: *maskBits, MaxRounds: *rounds,
		MaxSchedules: *maxSched, MaxCrashPoints: *maxCrash, MaxNested: *maxNest,
		MaxRunEvents: *maxEvts,
		Nodes:        *nodes, Epsilon: *eps, LogSize: *logSize, HeapWords: *heap,
	}
}

func parseMask(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
}

func parseSchedule(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -repro-schedule entry %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func main() {
	flag.Parse()

	// Repro mode is selected by the presence of any -repro-* flag, so an
	// empty -repro-schedule= (the root schedule) still counts.
	repro := false
	flag.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "repro-") {
			repro = true
		}
	})
	if repro {
		runRepro()
		return
	}

	rep, err := explore.Run(config())
	if err != nil {
		fatal(err)
	}
	if *stripW {
		rep.WallMS = 0
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, b, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(b)
	}
	if n := len(rep.Counterexamples); n > 0 {
		fmt.Fprintf(os.Stderr, "prepexplore: %d counterexamples; first repro:\n  %s\n",
			n, rep.Counterexamples[0].Repro)
		os.Exit(1)
	}
}

func runRepro() {
	sched, err := parseSchedule(*reproSched)
	if err != nil {
		fatal(err)
	}
	mask, err := parseMask(*reproMask)
	if err != nil {
		fatal(err)
	}
	nmask, err := parseMask(*reproNestMk)
	if err != nil {
		fatal(err)
	}
	lf := explore.Leaf{Schedule: sched, CrashAt: *reproCrash, Mask: mask,
		NestedAt: *reproNestAt, NestedMask: nmask}
	res, ce, err := explore.Repro(config(), lf)
	if err != nil {
		fatal(err)
	}
	if res.OK {
		fmt.Println("leaf OK: the replayed state admits a durable linearization")
		return
	}
	b, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("leaf FAILED: %s\n%s\n", ce.Reason, b)
	os.Exit(1)
}
