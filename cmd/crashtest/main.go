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
// The cycle itself, the declaration of its flags (harness.CrashConfig.Flags),
// the refusal of a run no cycle can honour (harness.CrashConfig.Validate), a
// failure's bisected one-line repro rendered from that declaration, and the
// document live in internal/harness (crash.go, machine.go); this command is
// I/O and exit codes. What the flags select:
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
// document. Exit status (runflag.Main): 0 every cycle passed, 1 a cycle
// failed or the run could not be carried out, 2 a runflag.UsageError.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prepuc/internal/harness"
	"prepuc/internal/prof"
	"prepuc/internal/runflag"
)

// cfg is the run the flags describe: every flag but the four below, which
// select output and profiling, is declared by harness.CrashConfig.Flags.
var cfg harness.CrashConfig

var (
	format     = flag.String("format", "table", "output format: table or json")
	outPath    = flag.String("o", "", "write results to this file (default stdout)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
)

func init() { cfg.Flags(flag.CommandLine) }

// checkUsage refuses an output format nothing renders, then whatever the run
// config refuses, and resolves the systems the run covers.
func checkUsage() ([]harness.CrashTarget, error) {
	if *format != "table" && *format != "json" {
		return nil, runflag.Usage(fmt.Errorf("unknown format %q (want table or json)", *format))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return harness.CrashTargets(cfg.System, cfg.Instances)
}

func main() { runflag.Main("crashtest", run) }

func run() error {
	tgs, err := checkUsage()
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	progress := out
	if *format == "json" {
		progress = os.Stderr
	}

	doc, failures, err := harness.BuildCrashDoc(progress, cfg, tgs)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err == nil && *format == "json" {
		err = harness.WriteJSON(out, doc)
	}
	if err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d crash/recover cycles failed their correctness condition", failures, doc.Checker.Cycles)
	}
	fmt.Fprintln(progress, "\nall crash/recover cycles satisfied their correctness condition")
	return nil
}
