// Command crashtest tortures the persistent universal constructions with
// randomly placed full-system crashes and verifies the correctness
// conditions after every recovery:
//
//	PREP-Durable   durable linearizability — no completed operation lost;
//	PREP-Buffered  buffered durable linearizability — the recovered state is
//	               the state of one consistent cut of a linearization, with
//	               at most ε+β−1 completed updates lost per crash;
//	CX-PUC         durable linearizability;
//	SOFT, ONLL     durable linearizability.
//
// Each iteration runs workers on the paper's mixed set workload, recording
// every operation's invoke and response on the virtual clock, freezes the
// machine at a pseudo-random event (mid-operation: threads are unwound from
// their next memory access), recovers, probes the recovered state, and
// checks the recorded history against it (internal/linearize), over
// -epochs chained crash/recover epochs on one machine. A probe also compares
// the recovered Size with the keys it read: a key beyond the workload's
// range fails the cycle. Background flushes and unfenced write-back
// resolution are enabled to make the crash states adversarial.
//
// The cycle itself, the bisected one-line repro of a failure, and the
// document live in internal/harness (crash.go, machine.go); this command is
// its flags, validation, I/O and exit codes. What the flags select:
//
//   - -policy: the fault adversary that decides which flushed-but-unfenced
//     lines survive each crash. A bare "targeted" advances its dropped-line
//     index with the iteration, so a run sweeps single-line-missing states.
//   - -nested N: a crash INSIDE the first N recovery attempts of every epoch
//     (re-entrant recovery); the epoch recovers until an attempt completes.
//   - -crash-at / -nested-at: pinned crash points, as a repro line prints
//     them; -bisect shrinks a failing crash point by binary search first.
//   - -instances N: N co-resident PREP instances on one machine with
//     disjoint key ranges, crashed together, recovered in two rotating
//     waves; each instance gets its own crash cut, and the composition of
//     their histories is audited (linearize.CheckComposition).
//   - -j N: cycles of a system run on N host workers; document and progress
//     stream are identical for every value.
//
// Every cycle also measures recovery's virtual time and replayed entries and
// what the adversary did; -format json emits them as one "prepuc-crash/v4"
// document. Exit status: 0 every cycle passed, 1 a cycle failed or the run
// could not be carried out, 2 flags no run can honour.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/harness"
	"prepuc/internal/prof"
)

// cfg is the run the flags describe: every flag but the five below, which
// select systems and I/O, is bound to the harness.CrashConfig field it names.
var cfg harness.CrashConfig

var (
	system     = flag.String("system", "all", strings.Join(drivers.Flags(drivers.Recoverable()), ", ")+" or all")
	format     = flag.String("format", "table", "output format: table or json")
	outPath    = flag.String("o", "", "write results to this file (default stdout)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
)

func init() {
	flag.IntVar(&cfg.Iterations, "iterations", 20, "crash/recover cycles per system")
	flag.IntVar(&cfg.Workers, "workers", 8, "worker threads")
	flag.Uint64Var(&cfg.Epsilon, "epsilon", 64, "PREP flush boundary increment ε")
	flag.Uint64Var(&cfg.LogSize, "log", 256, "shared log entries")
	flag.Int64Var(&cfg.Seed, "seed", 1, "base seed")
	flag.StringVar(&cfg.Policy, "policy", "", "fault policy for unfenced lines at crash: dropall, persistall, coinflip[=p], targeted[=k] (empty: built-in fair coin)")
	flag.IntVar(&cfg.Nested, "nested", 0, "nested crashes to inject inside recovery, per cycle")
	flag.Uint64Var(&cfg.CrashAt, "crash-at", 0, "pin the workload crash to this event index (0: per-iteration pseudo-random)")
	flag.Uint64Var(&cfg.NestedAt, "nested-at", 0, "pin nested crashes to this recovery event index (0: per-attempt pseudo-random)")
	flag.BoolVar(&cfg.Bisect, "bisect", true, "on failure, bisect the crash point before printing the repro")
	flag.IntVar(&cfg.Epochs, "epochs", 2, "chained crash/recover epochs per iteration")
	flag.IntVar(&cfg.Jobs, "j", 0, "run up to N crash/recover cycles in parallel (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Instances, "instances", 1, "co-resident PREP instances per machine; >1 runs sharded crash cycles (PREP systems only)")
}

// validate rejects flag values no run can honour — among them counts below
// one, which would check nothing and report success.
func validate() error {
	switch {
	case *format != "table" && *format != "json":
		return fmt.Errorf("unknown format %q (want table or json)", *format)
	case cfg.Iterations < 1:
		return fmt.Errorf("-iterations=%d: need at least one cycle", cfg.Iterations)
	case cfg.Workers < 1:
		return fmt.Errorf("-workers=%d: need at least one worker", cfg.Workers)
	case cfg.Epochs < 1:
		return fmt.Errorf("-epochs=%d: need at least one epoch", cfg.Epochs)
	case cfg.Instances < 1:
		return fmt.Errorf("-instances=%d: need at least one instance", cfg.Instances)
	case cfg.Nested < 0:
		return fmt.Errorf("-nested=%d: a count of nested crashes (0: none)", cfg.Nested)
	}
	if _, err := fault.Parse(cfg.Policy, 1); err != nil {
		return err
	}
	if cfg.Instances > 1 {
		switch {
		case cfg.Workers%cfg.Instances != 0:
			return fmt.Errorf("-workers=%d not divisible by -instances=%d", cfg.Workers, cfg.Instances)
		case cfg.Nested > 0:
			return errors.New("-instances > 1 does not compose with -nested")
		}
	}
	return nil
}

// fatal reports err and exits: 2 for a command line no run can honour, 1 for
// a run that could not be carried out.
func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
	os.Exit(code)
}

func main() {
	flag.Parse()
	if err := validate(); err != nil {
		fatal(2, err)
	}
	tgs, err := harness.CrashTargets(*system, cfg.Instances)
	if err != nil {
		fatal(2, err)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(1, err)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(1, err)
		}
		defer f.Close()
		out = f
	}
	progress := out
	if *format == "json" {
		progress = os.Stderr
	}

	doc, failures := harness.BuildCrashDoc(progress, cfg, tgs)
	// Stop profiling before the exit paths below; os.Exit skips defers.
	if err := stopProf(); err != nil {
		fatal(1, err)
	}
	if *format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(1, err)
		}
	}
	if failures > 0 {
		fmt.Fprintf(progress, "\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Fprintln(progress, "\nall crash/recover cycles satisfied their correctness condition")
}
