// Command prepbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	prepbench [-scale tiny|small|paper] [-experiment fig2a,fig3|all] [-seed N]
//	          [-format table|json] [-o FILE] [-j N] [-list]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Every experiment cell (algo × thread-count) owns an independent simulator,
// so -j N runs up to N cells on real CPUs in parallel (default GOMAXPROCS);
// results and progress are emitted in cell order, so the output is
// bit-identical for every -j value.
//
// With -format table (the default) each experiment prints one table: thread
// counts down the rows, one throughput column (ops per virtual second) per
// system, matching the series of the corresponding figure in the paper.
// With -format json the run emits one machine-readable document (schema
// "prepuc-bench/v2") whose per-point records carry the full metrics
// breakdown — flushes, fences, WBINVD invocations, coherence transfers,
// combiner batch statistics — of the measurement phase. Absolute numbers are
// simulator-relative; the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target — see EXPERIMENTS.md.
//
// Exit status (runflag.Main): 0 the run completed, 1 a run or I/O error, 2 a
// runflag.UsageError (an unknown -scale, -format or -experiment).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prepuc/internal/harness"
	"prepuc/internal/prof"
	"prepuc/internal/runflag"
)

var (
	scaleName  = flag.String("scale", "small", "experiment scale: tiny, small or paper")
	expList    = flag.String("experiment", "all", "comma-separated figure IDs, or 'all'")
	seed       = flag.Int64("seed", 1, "simulation seed (runs are deterministic per seed)")
	format     = flag.String("format", "table", "output format: table or json")
	outPath    = flag.String("o", "", "write results to this file (default stdout)")
	jobs       = flag.Int("j", 0, "run up to N experiment cells in parallel (0 = GOMAXPROCS)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	list       = flag.Bool("list", false, "list available experiments and exit")
)

func main() { runflag.Main("prepbench", run) }

func run() (retErr error) {
	// Flags are checked before profiling starts: a usage error leaves no file.
	var sc harness.Scale
	switch *scaleName {
	case "tiny":
		sc = harness.TinyScale()
	case "small":
		sc = harness.SmallScale()
	case "paper":
		sc = harness.PaperScale()
	default:
		return runflag.Usage(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *format != "table" && *format != "json" {
		return runflag.Usage(fmt.Errorf("-format=%s: want table or json", *format))
	}
	figs := harness.Catalog(sc)
	var ids []string
	if *expList == "all" {
		ids = append(harness.FigureIDs(figs), "ext-recovery")
	} else {
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			if _, ok := figs[id]; !ok && id != "ext-recovery" {
				return runflag.Usage(fmt.Errorf("unknown experiment %q (try -list)", id))
			}
			ids = append(ids, id)
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if *list {
		for _, id := range harness.FigureIDs(figs) {
			fmt.Printf("%-18s %s\n", id, figs[id].Title)
		}
		fmt.Printf("%-18s %s\n", "ext-recovery",
			"Recovery time: PREP-Durable ε windows vs ONLL full-history replay")
		return nil
	}

	// In table mode progress and tables go to the output; in json mode the
	// document is the output and progress lines go to stderr. Wall-time lines
	// always go to stderr: they are the one thing a seed does not determine.
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

	doc := harness.NewBenchDoc(sc, *seed)
	fmt.Fprintf(progress, "PREP-UC evaluation — scale=%s seed=%d topology=%dx%d duration=%.1fms(virtual)\n",
		sc.Name, *seed, sc.Topology.Nodes, sc.Topology.ThreadsPerNode,
		float64(sc.DurationNS)/1e6)
	for _, id := range ids {
		start := time.Now()
		if id == "ext-recovery" {
			fmt.Fprintf(progress, "\n=== ext-recovery: recovery time, checkpointing (PREP) vs log replay (ONLL) ===\n")
			points, err := harness.RunRecoveryExperiment(sc, *seed, *jobs, progress)
			if err != nil {
				return err
			}
			doc.AddRecovery(points)
			fmt.Fprintf(os.Stderr, "(wall time %.1fs)\n", time.Since(start).Seconds())
			continue
		}
		fig := figs[id]
		fmt.Fprintf(progress, "\n=== %s: %s ===\n", fig.ID, fig.Title)
		points, err := harness.RunFigure(fig, sc, *seed, *jobs, progress)
		if err != nil {
			return err
		}
		doc.AddFigure(fig, points)
		if *format == "table" {
			harness.WriteTable(out, fig, points)
		}
		fmt.Fprintf(os.Stderr, "(wall time %.1fs)\n", time.Since(start).Seconds())
	}
	if *format == "json" {
		return harness.WriteJSON(out, doc)
	}
	return nil
}
