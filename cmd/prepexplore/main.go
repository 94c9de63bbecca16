// Command prepexplore runs the bounded exhaustive explorer
// (internal/explore): for a tiny configuration it model-checks the recovery
// protocol over every schedule (up to DPOR equivalence), every crash-point
// equivalence class, every persist-subset materialization, and — at -depth 2
// — every persist-relevant crash inside recovery itself, adjudicating
// durable linearizability at every leaf.
//
// The default mode explores and emits one JSON document (schema
// "prepuc-explore/v1") on stdout or -o. Every counterexample carries a
// one-line repro invocation: the run's flags and the -repro-* flags naming
// its leaf, each that differs from its default (-repro-schedule always), e.g.
//
//	prepexplore -epsilon=2 -repro-crash-at=63 -repro-mask=2 \
//	    -repro-schedule=1,0,0 -system=prep-buffered
//
// replays exactly that leaf (forced dispatch prefix, crash event threshold,
// persist mask, optional nested pair) and re-adjudicates it, printing the
// verdict. -repro-schedule= (present but empty) names the root
// minimum-clock schedule. The report is deterministic: invariant across
// hosts, runs, and -j, except the wall_ms field (dropped with -strip-wall).
//
// Exit status (runflag.Main): 0 no leaf failed, 1 a counterexample (or a
// replayed leaf that fails) or a run or I/O error, 2 a runflag.UsageError.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"prepuc/internal/explore"
	"prepuc/internal/runflag"
)

// cfg and leaf are the run and the replayed leaf the flags describe: every
// flag but -o and -strip-wall, which select output, is declared by
// explore.Config.Flags or explore.Leaf.Flags.
var (
	cfg     explore.Config
	leaf    explore.Leaf
	outPath = flag.String("o", "", "write the JSON report to this file (default stdout)")
	stripW  = flag.Bool("strip-wall", false, "zero the wall_ms field (byte-identical reports across runs)")
)

func init() {
	cfg.Flags(flag.CommandLine)
	leaf.Flags(flag.CommandLine)
}

func main() { runflag.Main("prepexplore", run) }

// run explores, or replays the leaf the -repro-* flags name.
func run() error {
	// Repro mode is selected by the presence of any -repro-* flag, so an
	// empty -repro-schedule= (the root schedule) still counts.
	repro := false
	flag.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "repro-") {
			repro = true
		}
	})
	if repro {
		return runRepro()
	}

	rep, err := explore.Run(cfg)
	if err != nil {
		return err
	}
	if *stripW {
		rep.WallMS = 0
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, b, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(b)
	}
	if n := len(rep.Counterexamples); n > 0 {
		return fmt.Errorf("%d counterexamples; first repro:\n  %s", n, rep.Counterexamples[0].Repro)
	}
	return nil
}

func runRepro() error {
	res, ce, err := explore.Repro(cfg, leaf)
	if err != nil {
		return err
	}
	if res.OK {
		fmt.Println("leaf OK: the replayed state admits a durable linearization")
		return nil
	}
	b, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("leaf FAILED: %s\n%s\n", ce.Reason, b)
	return fmt.Errorf("the replayed leaf fails")
}
