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
// Exit status: 0 no leaf failed, 1 a counterexample (or a replayed leaf
// that fails) or a run or I/O error, 2 a command line no run can honour.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"prepuc/internal/explore"
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

// fatal reports err and exits: 2 for a configuration no run can honour, 1
// for a run or I/O that failed.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prepexplore:", err)
	if errors.As(err, new(explore.UsageError)) {
		os.Exit(2)
	}
	os.Exit(1)
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

	rep, err := explore.Run(cfg)
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
	res, ce, err := explore.Repro(cfg, leaf)
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
