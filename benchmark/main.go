// Command benchmark is the repository's benchmark: eight fixed workloads
// measured on both clocks — the virtual clock of the modelled machine and
// the host clock of the simulator — with per-layer metrics read from
// outside the program. README.md explains the workloads, the metrics and
// how a later change states a claim against them.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	    one workload; the last line of standard output is the result object
//	    BENCHMARK.json describes (end-to-end metrics with --trace 0,
//	    per-layer metrics and out/trace-NAME.json with --trace 1)
//	benchmark [--seed N] [--seconds S]
//	    every workload, both passes, each in its own subprocess; writes
//	    out/bench-seedN.json
//	benchmark -compare A.json B.json
//	    compares two such documents; exit 1 on a regression
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir is where trace files and suite documents go, relative to the
// working directory (the root of the checkout).
const outDir = "benchmark/out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and print its result object (default: the whole suite)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 8, "how long one pass measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	compare := fs.Bool("compare", false, "compare two suite documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two documents")
			return 2
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name == "":
		return suite(*seed, *seconds, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	// The simulator is one baton-passing logical thread; one host thread is
	// faster and steadier than two on a small box.
	runtime.GOMAXPROCS(1)
	out, err := run(w, options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, traceDir: outDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printTable(stderr, w, out, defs)
	line := resultLine{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		if v, ok := out.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = lineMetric{Value: v, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// resultLine is the object BENCHMARK.json's contract asks for.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printTable(w io.Writer, wl *workload, out *outcome, defs []metricDef) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", wl.name, out.Correct, out.Attempted, out.Failed)
	for _, p := range out.Problems {
		fmt.Fprintf(w, "  GATE: %s\n", p)
	}
	for _, d := range defs {
		if v, ok := out.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %18.6g %-8s %s clock, %s is better", d.Name, v, d.Unit, d.Clock, d.Better)
			if d.Moves != "" {
				fmt.Fprintf(w, "; moves %s", d.Moves)
			}
			fmt.Fprintln(w)
		}
	}
}

// --- suite: every workload, one document ---

const (
	schema    = "prepuc-benchmark/v1"
	costModel = "unvalidated: the repository holds no hardware reference numbers, so virtual-clock results carry no error figure"
)

type docHeader struct {
	Schema    string      `json:"schema"`
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	CostModel string      `json:"cost_model"`
}

type document struct {
	docHeader
	Workloads []docWorkload `json:"workloads"`
}

// write stores the document with one workload per line: a few hundred
// numbers each, kept out of the way of whoever reads the header.
func (d *document) write(path string) error {
	head, err := json.Marshal(d.docHeader)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(head[:len(head)-1])
	buf.WriteString(`,"workloads":[`)
	for i, w := range d.Workloads {
		b, err := json.Marshal(w)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		buf.Write(b)
	}
	buf.WriteString("\n]}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs_per_workload"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// InContract is false for explore_small: it has no virtual clock, so it
	// cannot report every end-to-end metric BENCHMARK.json lists.
	InContract  bool                 `json:"in_benchmark_json"`
	Correct     bool                 `json:"correct"`
	Attempted   uint64               `json:"attempted"`
	Failed      uint64               `json:"failed"`
	FailedShare float64              `json:"failed_share"`
	EndToEnd    map[string]docMetric `json:"end_to_end"`
	PerLayer    map[string]docMetric `json:"per_layer"`
}

type docMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func environmentNow() environment {
	e := environment{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown", GOMAXPROCS: 1}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// child runs one pass of one workload in a subprocess of this binary and
// parses the last line of its output.
func child(name string, seed int64, seconds float64, trace int, stderr io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s --trace %d: %w", name, trace, err)
	}
	last := bytes.TrimSpace(raw)
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("%s --trace %d: bad result line: %w", name, trace, err)
	}
	return &line, nil
}

func docMetrics(line *resultLine, defs []metricDef) map[string]docMetric {
	out := map[string]docMetric{}
	for _, d := range defs {
		if m, ok := line.Metrics[d.Name]; ok {
			out[d.Name] = docMetric{Value: m.Value, Unit: d.Unit, Clock: d.Clock, Better: d.Better, Bound: d.Bound}
		}
	}
	return out
}

func suite(seed int64, seconds float64, stdout, stderr io.Writer) int {
	doc := document{docHeader: docHeader{Schema: schema, Env: environmentNow(), Seed: seed, Seconds: seconds, CostModel: costModel}}
	ok := true
	for _, w := range workloads {
		e2e, err := child(w.name, seed, seconds, 0, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		layers, err := child(w.name, seed, seconds, 1, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		dw := docWorkload{
			Name: w.name, Why: w.why, InContract: w.contract,
			Correct: e2e.Correct && layers.Correct, Attempted: e2e.Attempted, Failed: e2e.Failed,
			FailedShare: float64(e2e.Failed) / float64(e2e.Attempted),
			EndToEnd:    docMetrics(e2e, endToEnd), PerLayer: docMetrics(layers, perLayer),
		}
		ok = ok && dw.Correct && dw.Failed == 0
		doc.Workloads = append(doc.Workloads, dw)
	}
	path := filepath.Join(outDir, fmt.Sprintf("bench-seed%d.json", seed))
	if err := doc.write(path); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%s)\n", path, costModel)
	if !ok {
		fmt.Fprintln(stderr, "benchmark: a correctness gate failed or operations failed")
		return 1
	}
	return 0
}

// --- compare: two documents, one verdict ---

func loadDoc(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	return &d, nil
}

// compareDocs prints one row per (workload, bounded metric) of A against B.
// A metric regresses when B is worse than A by more than the metric's bound;
// a virtual-clock or count metric that is not bit-equal at equal seeds is
// flagged as drift (the simulator is deterministic, so drift is a behaviour
// change the author must declare) without failing the comparison; a rise of
// failed_share always fails it.
func compareDocs(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadDoc(pathA)
	b, errB := loadDoc(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compare(a, b, stdout)
}

func compare(a, b *document, stdout io.Writer) int {
	byName := map[string]docWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressions, drift := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-24s missing from the second document\n", wa.Name)
			regressions++
			continue
		}
		if wb.FailedShare > wa.FailedShare || (wa.Correct && !wb.Correct) {
			fmt.Fprintf(stdout, "%-24s %-34s %v -> %v  REGRESSION\n", wa.Name, "failed_share", wa.FailedShare, wb.FailedShare)
			regressions++
		}
		for _, part := range [][2]map[string]docMetric{{wa.EndToEnd, wb.EndToEnd}, {wa.PerLayer, wb.PerLayer}} {
			names := make([]string, 0, len(part[0]))
			for n := range part[0] {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				ma, mb := part[0][n], part[1][n]
				if _, ok := part[1][n]; !ok {
					continue
				}
				drifted := ma.Clock != clockHost && a.Seed == b.Seed && ma.Value != mb.Value
				if drifted {
					drift++
				}
				if (ma.Bound == 0 && !drifted) || (ma.Value == 0 && mb.Value == 0) {
					continue // reported only, or bypassed on this workload
				}
				worse := 0.0
				if ma.Value != 0 {
					worse = (mb.Value - ma.Value) / ma.Value
					if ma.Better == "higher" {
						worse = -worse
					}
				}
				verdict := "ok"
				switch {
				case ma.Bound > 0 && worse > ma.Bound && !withinFloor(n, ma.Value, mb.Value):
					verdict = "REGRESSION"
					regressions++
				case drifted:
					verdict = "drift (virtual clock not bit-equal at equal seed)"
				}
				fmt.Fprintf(stdout, "%-24s %-34s %14.6g -> %-14.6g %+7.2f%% worse (bound %.0f%%)  %s\n",
					wa.Name, n, ma.Value, mb.Value, 100*worse, 100*ma.Bound, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "%d regression(s), %d drifted virtual metric(s)\n", regressions, drift)
	if regressions > 0 {
		return 1
	}
	return 0
}

// withinFloor: set-up takes tens of milliseconds, where a share of the
// baseline is smaller than the timer noise; 20 ms of slack is allowed.
func withinFloor(name string, a, b float64) bool {
	return name == "setup_s" && b-a <= 0.020
}
