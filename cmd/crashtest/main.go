// Command crashtest tortures the persistent universal constructions with
// randomly placed full-system crashes and verifies the correctness
// conditions after every recovery:
//
//	PREP-Durable   durable linearizability — no completed operation lost;
//	PREP-Buffered  buffered durable linearizability — the recovered state is
//	               a per-worker prefix, with at most ε+β−1 completed
//	               operations lost per crash;
//	CX-PUC         durable linearizability;
//	SOFT, ONLL     durable linearizability.
//
// Each iteration runs workers inserting per-worker key sequences, freezes
// the machine at a pseudo-random event (mid-operation: threads are unwound
// from their next memory access), recovers, and checks the recovered state
// against the host-side completion record. Background flushes and unfenced
// write-back resolution are enabled to make the crash states adversarial.
//
// v2 additions:
//
//   - -policy selects the fault adversary that decides which
//     flushed-but-unfenced lines survive each crash (dropall, persistall,
//     coinflip[=p], targeted[=k]; empty = the substrate's built-in fair
//     coin). Targeted advances its dropped-line index with the iteration,
//     so an -iterations run sweeps single-line-missing states.
//   - -nested N arms a crash INSIDE the recovery run itself for the first N
//     recovery attempts of every cycle, exercising re-entrant recovery; the
//     cycle then retries recovery until it completes.
//   - -crash-at / -nested-at pin the workload and nested crash points, so a
//     failure reproduces from its printed one-line repro.
//   - -bisect (on by default) shrinks a failing cycle's crash point by
//     binary search before printing the repro.
//   - -j N fans a system's cycles out across N workers (default GOMAXPROCS;
//     each cycle owns a private simulator); the document and the progress
//     stream are identical for every -j value. -cpuprofile/-memprofile
//     write standard pprof profiles.
//   - -check linearize swaps the per-worker prefix condition for a full
//     durable-linearizability check: every operation of a mixed set
//     workload is recorded with invoke/response timestamps
//     (internal/linearize) and each epoch's history plus the probed
//     recovered state must admit a legal linearization — buffered durable
//     with the ε+β−1 loss allowance for PREP-Buffered, strict for the
//     rest. -epochs N (default 2) chains N crash/recover cycles on one
//     machine, feeding each epoch's recovered state into the next. The
//     JSON document gains a per-cycle "check" block and a top-level
//     "checker" summary (schema stays prepuc-crash/v2; all prior fields
//     are unchanged).
//   - -sweep N strides N nested crash points across one recovery, cloning
//     the crashed machine copy-on-write per point instead of re-running the
//     workload; each system's document entry gains an additive "sweep"
//     block whose "timing" summary (wall_ms, clones, pages_copied) shows
//     what the sweep cost the host. -sweep-stride overrides the stride.
//
// Besides the correctness verdicts, every cycle measures how long recovery
// took in virtual time, how many log entries it replayed, and what the
// fault adversary did (lines dropped/persisted at crashes, recovery
// restarts, replay holes); with -format json the run emits one
// machine-readable document (schema "prepuc-crash/v2"; all v1 fields are
// unchanged) carrying those per-cycle records plus an aggregate "fault"
// block.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/history"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/par"
	"prepuc/internal/prof"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

var (
	iterations  = flag.Int("iterations", 20, "crash/recover cycles per system")
	workers     = flag.Int("workers", 8, "worker threads")
	epsilon     = flag.Uint64("epsilon", 64, "PREP flush boundary increment ε")
	logSize     = flag.Uint64("log", 256, "shared log entries")
	seed        = flag.Int64("seed", 1, "base seed")
	system      = flag.String("system", "all", strings.Join(drivers.Flags(drivers.Recoverable()), ", ")+" or all")
	format      = flag.String("format", "table", "output format: table or json")
	outPath     = flag.String("o", "", "write results to this file (default stdout)")
	policySpec  = flag.String("policy", "", "fault policy for unfenced lines at crash: dropall, persistall, coinflip[=p], targeted[=k] (empty: built-in fair coin)")
	nested      = flag.Int("nested", 0, "nested crashes to inject inside recovery, per cycle")
	crashAtFlg  = flag.Uint64("crash-at", 0, "pin the workload crash to this event index (0: per-iteration pseudo-random)")
	nestedAt    = flag.Uint64("nested-at", 0, "pin nested crashes to this recovery event index (0: per-attempt pseudo-random)")
	bisect      = flag.Bool("bisect", true, "on failure, bisect the crash point before printing the repro")
	checkMode   = flag.String("check", "prefix", "correctness checker: prefix (per-worker key-prefix condition) or linearize (WGL durable-linearizability check of the recorded history)")
	epochs      = flag.Int("epochs", 2, "chained crash/recover epochs per iteration (linearize checker only)")
	jobs        = flag.Int("j", 0, "run up to N crash/recover cycles in parallel (0 = GOMAXPROCS)")
	sweepN      = flag.Int("sweep", 0, "per system, sweep N nested crash points inside one recovery via COW clones and report a timing block (0: off)")
	sweepStride = flag.Uint64("sweep-stride", 0, "event stride between swept nested crash points (0: recovery_events/(sweep+1))")
	cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	flushElide  = flag.Bool("flush-elide", true, "FliT-style clean-line flush elision in the NVM substrate (false: reference no-elision cost model)")
)

// CrashSchema identifies the machine-readable crashtest output format.
const CrashSchema = "prepuc-crash/v2"

// recStats is what one recovery run measured.
type recStats struct {
	// RecoveryVirtualNS is the virtual time the (final, successful) recovery
	// procedure took.
	RecoveryVirtualNS uint64 `json:"recovery_virtual_ns"`
	// Replayed is the number of log entries recovery re-applied (zero for
	// systems whose recovery attaches to persisted state without replay).
	Replayed uint64 `json:"replayed"`
}

// faultStats is what the fault adversary did across one scope (a cycle, or
// the whole run).
type faultStats struct {
	Policy           string `json:"policy"`
	PendingDropped   uint64 `json:"pending_dropped"`
	PendingPersisted uint64 `json:"pending_persisted"`
	RecoveryRestarts uint64 `json:"recovery_restarts"`
	ReplayHoles      uint64 `json:"replay_holes"`
	NestedCrashes    uint64 `json:"nested_crashes"`
}

func (f *faultStats) add(g faultStats) {
	f.PendingDropped += g.PendingDropped
	f.PendingPersisted += g.PendingPersisted
	f.RecoveryRestarts += g.RecoveryRestarts
	f.ReplayHoles += g.ReplayHoles
	f.NestedCrashes += g.NestedCrashes
}

// checkBlock is one cycle's linearizability verdict (-check linearize
// only; additive to schema v2).
type checkBlock struct {
	// Mode is the checker that produced the verdict ("linearize").
	Mode string `json:"mode"`
	// Epochs is how many chained crash/recover epochs the cycle ran.
	Epochs int `json:"epochs"`
	// Ops and Partitions total the checked operations and WGL partitions
	// across the cycle's epochs.
	Ops        int `json:"ops"`
	Partitions int `json:"partitions"`
	// Lost is the total completed-operation loss the checker had to grant
	// (0 except under the buffered allowance).
	Lost int  `json:"lost"`
	OK   bool `json:"ok"`
	// FailedEpoch / FailedPartition / Reason locate the first failure
	// (FailedEpoch is -1 when OK).
	FailedEpoch     int    `json:"failed_epoch"`
	FailedPartition string `json:"failed_partition,omitempty"`
	Reason          string `json:"reason,omitempty"`
}

// checkerSummary aggregates the run's linearizability checking (-check
// linearize only; additive to schema v2).
type checkerSummary struct {
	Mode     string `json:"mode"`
	Epochs   int    `json:"epochs"`
	Cycles   int    `json:"cycles"`
	Ops      int    `json:"ops"`
	Lost     int    `json:"lost"`
	Failures int    `json:"failures"`
}

// crashCycle is one iteration's record in the JSON document. The first
// seven fields are unchanged from schema v1.
type crashCycle struct {
	Iteration int    `json:"iteration"`
	OK        bool   `json:"ok"`
	Completed uint64 `json:"completed_ops"`
	Recovered uint64 `json:"recovered_ops"`
	Lost      uint64 `json:"lost_completed"`
	recStats
	CrashAt          uint64        `json:"crash_at"`
	RecoveryAttempts int           `json:"recovery_attempts"`
	Fault            faultStats    `json:"fault"`
	Check            *checkBlock   `json:"check,omitempty"`
	Sharded          *shardedBlock `json:"sharded,omitempty"`
}

// crashSystemDoc groups one system's cycles, plus its nested-recovery sweep
// record when -sweep is on (additive; absent by default so the document is
// unchanged for existing consumers).
type crashSystemDoc struct {
	System string       `json:"system"`
	Cycles []crashCycle `json:"cycles"`
	Sweep  *sweepBlock  `json:"sweep,omitempty"`
}

// crashDoc is the whole run.
type crashDoc struct {
	Schema     string           `json:"schema"`
	Iterations int              `json:"iterations"`
	Workers    int              `json:"workers"`
	Epsilon    uint64           `json:"epsilon"`
	LogSize    uint64           `json:"log_size"`
	Seed       int64            `json:"seed"`
	Nested     int              `json:"nested"`
	Instances  int              `json:"instances,omitempty"`
	Fault      faultStats       `json:"fault"`
	Checker    *checkerSummary  `json:"checker,omitempty"`
	Systems    []crashSystemDoc `json:"systems"`
}

func main() {
	flag.Parse()
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want table or json)\n", *format)
		os.Exit(2)
	}
	if *checkMode != "prefix" && *checkMode != "linearize" {
		fmt.Fprintf(os.Stderr, "unknown checker %q (want prefix or linearize)\n", *checkMode)
		os.Exit(2)
	}
	if _, err := fault.Parse(*policySpec, 1); err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		os.Exit(2)
	}
	if *instancesFlg > 1 {
		switch {
		case *workers%*instancesFlg != 0:
			fmt.Fprintf(os.Stderr, "crashtest: -workers=%d not divisible by -instances=%d\n", *workers, *instancesFlg)
			os.Exit(2)
		case *checkMode != "prefix":
			fmt.Fprintln(os.Stderr, "crashtest: -instances > 1 supports only -check prefix (sharded linearizability lives in prepserve -check)")
			os.Exit(2)
		case *nested > 0 || *sweepN > 0:
			fmt.Fprintln(os.Stderr, "crashtest: -instances > 1 does not compose with -nested or -sweep")
			os.Exit(2)
		}
	}
	tgs, err := targets()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		os.Exit(1)
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	progress := out
	if *format == "json" {
		progress = os.Stderr
	}

	doc, failures := buildDoc(progress, tgs)
	// Stop profiling before the exit paths below; os.Exit skips defers.
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		os.Exit(1)
	}
	if *format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(progress, "\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Fprintln(progress, "\nall crash/recover cycles satisfied their correctness condition")
}

// target is one system under test: its registry entry plus crashtest's own
// seed offset, which keeps the systems' seed streams disjoint.
type target struct {
	drivers.Entry
	offset int64
}

// The per-system seed offsets, keyed by -system spelling (absent: 0). Flat
// cycles run the two PREP modes on one stream; sharded cycles, PREP-only,
// separate them.
var (
	flatSeedOffsets    = map[string]int64{"cx": 50_000, "soft": 90_000, "onll": 130_000}
	shardedSeedOffsets = map[string]int64{"prep-buffered": 50_000}
)

// targets resolves -system against the registry: the recoverable
// constructions, narrowed under -instances > 1 to those whose engines can
// co-reside on one machine.
func targets() ([]target, error) {
	entries, offsets := drivers.Recoverable(), flatSeedOffsets
	if *system != "all" {
		e, err := drivers.Lookup(entries, *system)
		if err != nil {
			return nil, fmt.Errorf("%w or all", err)
		}
		entries = []drivers.Entry{e}
	}
	if *instancesFlg > 1 {
		offsets = shardedSeedOffsets
	}
	var out []target
	for _, e := range entries {
		if *instancesFlg <= 1 || e.Instanced {
			out = append(out, target{e, offsets[e.Flag]})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-instances > 1 needs multi-instance region naming; -system=%s has none", *system)
	}
	return out, nil
}

// sizing is the machine every flat cycle builds: the shared crash scale at
// the flag-selected worker count, log size and ε.
func sizing() uc.Sizing { return drivers.CrashScale(topo(), *workers, *logSize, *epsilon) }

// cycleFunc runs one iteration's crash/recover cycle and returns its
// record, the checker-specific half of its progress line, and the error
// boot or recovery answered with, if any — such a cycle is recorded failed.
type cycleFunc func(tg target, iter int, crashAt uint64) (crashCycle, string, error)

// activeCycle is the cycle the flags select.
func activeCycle() cycleFunc {
	switch {
	case *instancesFlg > 1:
		return runShardedCycle
	case *checkMode == "linearize":
		return runLinearizeCycle
	}
	return runCycle
}

// buildDoc runs the selected systems' crash/recover cycles under the
// configured checker and returns the machine-readable document plus the
// failure count. It is the whole run minus flag validation and I/O setup,
// so tests can drive it deterministically.
func buildDoc(progress io.Writer, tgs []target) (crashDoc, int) {
	doc := crashDoc{
		Schema: CrashSchema, Iterations: *iterations, Workers: *workers,
		Epsilon: *epsilon, LogSize: *logSize, Seed: *seed, Nested: *nested,
		Fault: faultStats{Policy: policyLabel()},
	}
	banner := "crash/recover cycles"
	if *instancesFlg > 1 {
		doc.Instances = *instancesFlg
		banner = fmt.Sprintf("sharded crash/recover cycles (instances=%d)", *instancesFlg)
	} else if *checkMode == "linearize" {
		doc.Checker = &checkerSummary{Mode: "linearize", Epochs: *epochs}
	}
	failures := 0
	// Each cycle builds its machine from scratch on a private scheduler, so
	// cycles of one system fan out across jobs workers; per-cycle records are
	// slotted by iteration index and the progress lines (including any
	// bisected failure repro, which re-runs cycles inside the worker) are
	// buffered and released in iteration order, making both the document and
	// the output identical for every -j value.
	for _, tg := range tgs {
		fmt.Fprintf(progress, "=== %s: %d %s ===\n", tg.Name, *iterations, banner)
		sd := crashSystemDoc{System: tg.Name}
		cycles := make([]crashCycle, *iterations)
		var seqOut par.Seq
		par.Do(par.Jobs(*jobs), *iterations, func(i int) {
			var buf bytes.Buffer
			cycles[i] = runIteration(&buf, tg, i, crashEvent(i))
			seqOut.Done(i, func() { progress.Write(buf.Bytes()) })
		})
		if *sweepN > 0 {
			sd.Sweep = runSweep(progress, tg)
			failures += sd.Sweep.Failures
		}
		for _, c := range cycles {
			if !c.OK {
				failures++
			}
			doc.Fault.add(c.Fault)
			if doc.Checker != nil && c.Check != nil {
				doc.Checker.Cycles++
				doc.Checker.Ops += c.Check.Ops
				doc.Checker.Lost += c.Check.Lost
				if !c.Check.OK {
					doc.Checker.Failures++
				}
			}
			sd.Cycles = append(sd.Cycles, c)
		}
		doc.Systems = append(doc.Systems, sd)
	}
	return doc, failures
}

// runIteration is one iteration under the active checker: the cycle, its
// progress line and — on failure — the error or check verdict and a
// one-line repro, the crash point bisected down first when -bisect is on.
func runIteration(buf *bytes.Buffer, tg target, i int, crashAt uint64) crashCycle {
	cyc, detail, err := activeCycle()(tg, i, crashAt)
	status := "OK "
	if !cyc.OK {
		status = "FAIL"
	}
	fmt.Fprintf(buf, "  [%s] crash %2d @%-6d: %s\n", status, i, crashAt, detail)
	if cyc.OK {
		return cyc
	}
	if err != nil {
		fmt.Fprintf(buf, "       error: %v\n", err)
	} else if cb := cyc.Check; cb != nil {
		fmt.Fprintf(buf, "       check: epoch %d, %s: %s\n", cb.FailedEpoch, cb.FailedPartition, cb.Reason)
	}
	at := crashAt
	if *bisect {
		at = bisectCrash(buf, tg, i, crashAt)
	}
	reproLine(buf, tg, i, 1, fmt.Sprintf("-crash-at=%d", at))
	return cyc
}

func topo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: (*workers + 1) / 2} }

// policyLabel names the adversary in output ("" would be ambiguous).
func policyLabel() string {
	if *policySpec == "" {
		return "default-coin"
	}
	return *policySpec
}

// iterPolicySpec is the policy spec of one iteration: a bare "targeted"
// advances its starting drop index with the iteration so that successive
// cycles sweep different single-line-missing states.
func iterPolicySpec(iter int) string {
	if *policySpec == "targeted" {
		return fmt.Sprintf("targeted=%d", iter)
	}
	return *policySpec
}

// cyclePolicy builds a fresh policy value for one cycle's crash lineage (a
// stateful policy must not be shared across machines).
func cyclePolicy(iter int, base int64) fault.Policy {
	p, err := fault.Parse(iterPolicySpec(iter), uint64(base)+11)
	if err != nil {
		panic(err) // spec already validated in main
	}
	return p
}

// crashEvent picks the iteration's workload crash point.
func crashEvent(iter int) uint64 {
	if *crashAtFlg != 0 {
		return *crashAtFlg
	}
	return 20_000 + uint64(iter)*37_511%600_000
}

// nestedEvent picks the recovery event index at which nested crash attempt
// a of iteration iter fires. The auto placement stays low so it lands
// inside even short recovery runs; attempts shift so a retried recovery is
// not killed at the same point forever.
func nestedEvent(iter, attempt int) uint64 {
	if *nestedAt != 0 {
		return *nestedAt + uint64(attempt)*257
	}
	return 400 + (uint64(iter)*733+uint64(attempt)*311)%2600
}

// nestedArm arms a crash inside the first -nested recovery attempts of
// iteration iter (drivers.Recover's nestedAt argument).
func nestedArm(iter int) func(attempt int) uint64 {
	return func(attempt int) uint64 {
		if attempt < *nested {
			return nestedEvent(iter, attempt)
		}
		return 0
	}
}

// addRecovery folds one recover-until-done run into the cycle's record.
func (c *crashCycle) addRecovery(rec drivers.Recovery) {
	c.RecoveryAttempts += rec.Attempts
	c.Fault.NestedCrashes += uint64(rec.NestedCrashes)
	c.Replayed += rec.Info.Replayed
	c.RecoveryVirtualNS += rec.VirtualNS
}

// readFault fills the adversary's tallies from the cycle's final machine.
func (c *crashCycle) readFault(sys *nvm.System) {
	ms := sys.Metrics().Snapshot()
	c.Fault.Policy = policyLabel()
	c.Fault.PendingDropped = ms.CrashLinesDropped
	c.Fault.PendingPersisted = ms.CrashLinesPersisted
	c.Fault.RecoveryRestarts = ms.RecoveryRestarts
	c.Fault.ReplayHoles = ms.ReplayHoles
}

// recoveryLine renders the recovery half of a flat cycle's progress line.
func (c *crashCycle) recoveryLine() string {
	return fmt.Sprintf("replayed=%d attempts=%d nested=%d restarts=%d recovery=%.3fms(virtual)",
		c.Replayed, c.RecoveryAttempts, c.Fault.NestedCrashes, c.Fault.RecoveryRestarts,
		float64(c.RecoveryVirtualNS)/1e6)
}

// bootCycle boots ds, in order, on a fresh machine seeded from base and
// installs iteration iter's fault policy.
func bootCycle(base int64, iter int, ds ...*uc.Driver) (*nvm.System, []uc.UC, error) {
	engs := make([]uc.UC, len(ds))
	sys, eng, err := drivers.Boot(ds[0], base, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: uint64(base) + 7,
		NoFlushElision: !*flushElide,
	}, func(t *sim.Thread, sys *nvm.System, _ uc.UC) (err error) {
		for k := 1; k < len(ds) && err == nil; k++ {
			engs[k], err = ds[k].Boot(t, sys)
		}
		return err
	})
	engs[0] = eng
	sys.SetFaultPolicy(cyclePolicy(iter, base))
	if err != nil {
		err = fmt.Errorf("boot: %w", err)
	}
	return sys, engs, err
}

// crashedMachine boots d and drives per-worker key insertions into the
// crash armed at crashAt, returning the frozen machine and how many inserts
// each worker completed.
func crashedMachine(d *uc.Driver, base int64, iter int, crashAt uint64) (*nvm.System, []uint64, error) {
	sys, engs, err := bootCycle(base, iter, d)
	if err != nil {
		return sys, nil, err
	}
	sch := sim.New(base + 1)
	sch.CrashAtEvent(crashAt)
	sys.SetScheduler(sch)
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	tp := topo()
	completed := make([]uint64, *workers)
	for tid := range completed {
		tid := tid
		sch.Spawn("worker", tp.NodeOf(tid), 0, func(t *sim.Thread) {
			defer func() {
				if r := recover(); r != nil && !sim.Crashed(r) {
					panic(r)
				}
			}()
			for i := uint64(0); ; i++ {
				engs[0].Execute(t, tid, uc.Insert(history.Key(tid, i), i))
				completed[tid] = i + 1
			}
		})
	}
	sch.Run()
	return sys, completed, nil
}

// probeKeys reads back which keys survived recovery.
func probeKeys(recSys *nvm.System, seed int64, completed []uint64, eng uc.UC) [][]bool {
	keys := make([][]bool, len(completed))
	drivers.Probe(recSys, seed, func(t *sim.Thread) {
		for tid := range completed {
			n := completed[tid] + 32
			keys[tid] = make([]bool, n)
			for i := uint64(0); i < n; i++ {
				keys[tid][i] = eng.Execute(t, 0, uc.Get(history.Key(tid, i))) != uc.NotFound
			}
		}
	})
	return keys
}

// reportOK applies d's correctness condition to a prefix report: buffered
// durable with the ε+β−1 loss allowance, or strict durable.
func reportOK(d *uc.Driver, rep history.Report) bool {
	if d.Buffered {
		return rep.BufferedOK(*epsilon, uint64(topo().ThreadsPerNode))
	}
	return rep.DurableOK()
}

// runCycle executes one boot → workload-crash → recover(×attempts) → probe
// cycle and checks the recovered state against the per-worker prefix
// condition.
func runCycle(tg target, iter int, crashAt uint64) (crashCycle, string, error) {
	d := tg.New(sizing())
	base := *seed + int64(iter)*101 + tg.offset
	cyc := crashCycle{Iteration: iter, CrashAt: crashAt}
	var rep history.Report
	finish := func(sys *nvm.System, err error) (crashCycle, string, error) {
		cyc.readFault(sys)
		cyc.OK = err == nil && reportOK(d, rep)
		cyc.Completed, cyc.Recovered, cyc.Lost = rep.Completed, rep.Recovered, rep.LostCompleted
		return cyc, fmt.Sprintf("%s %s", rep, cyc.recoveryLine()), err
	}

	sys, completed, err := crashedMachine(d, base, iter, crashAt)
	if err != nil {
		return finish(sys, err)
	}
	// The first -nested recovery attempts run with a crash armed inside the
	// recovery itself; recovery must be re-entrant, so the cycle keeps
	// recovering until an attempt completes.
	rec, err := drivers.Recover(d, sys, base+2, nestedArm(iter), nil)
	cyc.addRecovery(rec)
	if err != nil {
		return finish(rec.Sys, fmt.Errorf("recover: %w", err))
	}
	rep = history.Check(probeKeys(rec.Sys, base+1000, completed, rec.Eng), completed)
	return finish(rec.Sys, nil)
}

// reproLine prints the command that re-runs exactly iteration iter's
// machine: run as iteration 0 with the adjusted -seed it reproduces the
// iteration's seed stream, and pins fix what the iteration index chose
// (-crash-at for a cycle, the sweep geometry for a sweep).
func reproLine(w io.Writer, tg target, iter, iterations int, pins ...string) {
	args := []string{fmt.Sprintf("-system=%s", tg.Flag)}
	if *instancesFlg > 1 {
		args = append(args, fmt.Sprintf("-instances=%d", *instancesFlg))
	}
	args = append(args,
		fmt.Sprintf("-iterations=%d", iterations),
		fmt.Sprintf("-workers=%d", *workers),
		fmt.Sprintf("-epsilon=%d", *epsilon),
		fmt.Sprintf("-log=%d", *logSize),
		fmt.Sprintf("-seed=%d", *seed+int64(iter)*101))
	args = append(args, pins...)
	if *checkMode != "prefix" {
		args = append(args, fmt.Sprintf("-check=%s", *checkMode), fmt.Sprintf("-epochs=%d", *epochs))
	}
	if !*flushElide {
		args = append(args, "-flush-elide=false")
	}
	if *policySpec != "" {
		args = append(args, fmt.Sprintf("-policy=%s", iterPolicySpec(iter)))
	}
	if *nested > 0 {
		na := *nestedAt
		if na == 0 {
			na = nestedEvent(iter, 0)
		}
		args = append(args, fmt.Sprintf("-nested=%d", *nested), fmt.Sprintf("-nested-at=%d", na))
	}
	fmt.Fprintf(w, "       repro: crashtest %s\n", strings.Join(args, " "))
}

// bisectCrash binary-searches the smallest failing crash point below the
// observed failure, assuming (best-effort) that the failure boundary is
// monotone between a passing low point and the failing high point.
func bisectCrash(w io.Writer, tg target, iter int, failAt uint64) uint64 {
	cycleOK := func(crashAt uint64) bool {
		cyc, _, _ := activeCycle()(tg, iter, crashAt)
		return cyc.OK
	}
	lo, hi := uint64(64), failAt // crash during boot replay is uninteresting
	if !cycleOK(lo) {
		return lo
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if cycleOK(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	fmt.Fprintf(w, "       bisect: crash point shrunk %d -> %d\n", failAt, hi)
	return hi
}
