package harness

// crash.go is cmd/crashtest minus flags and I/O: the prepuc-crash document,
// the crash cycle it records — boot K co-resident instances on one machine →
// drive recorded workers into a full-system crash → recover in waves until
// an attempt completes → probe → verdict, over chained epochs — and the
// bisect/repro reporting of a failed cycle. The flat cycle is the K=1,
// one-wave case of the co-resident one: untagged keys, the un-shrunk sizing,
// no sharded block. A cycle's base — CrashConfig.Seed, the iteration index
// and the target's offset — seeds its substrate RNG, fault policy and
// workload generators (DESIGN.md §15, "Which seeds exist") and picks its
// first recovery wave; its schedulers draw nothing. CrashConfig declares
// crashtest's run flags, and a failed cycle's repro is rendered from that
// declaration (internal/runflag); nothing here parses a command line.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"

	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/linearize"
	"prepuc/internal/metrics"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/par"
	"prepuc/internal/runflag"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// CrashSchema identifies the machine-readable crashtest output format.
const CrashSchema = "prepuc-crash/v4"

// CrashConfig is one crashtest run: cmd/crashtest's flags but its output
// and profiling ones, each declared by Flags (the field comments name them).
type CrashConfig struct {
	System     string // -system
	Iterations int    // -iterations
	Workers    int    // -workers
	Epsilon    uint64 // -epsilon
	LogSize    uint64 // -log
	Seed       int64  // -seed
	Policy     string // -policy
	Nested     int    // -nested
	CrashAt    uint64 // -crash-at
	NestedAt   uint64 // -nested-at
	Bisect     bool   // -bisect
	Epochs     int    // -epochs
	Jobs       int    // -j
	Instances  int    // -instances
}

// Flags declares c's flags on fs, with crashtest's defaults.
func (c *CrashConfig) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.System, "system", "all", strings.Join(drivers.Flags(drivers.Recoverable()), ", ")+" or all")
	fs.IntVar(&c.Iterations, "iterations", 20, "crash/recover cycles per system")
	fs.IntVar(&c.Workers, "workers", 8, "worker threads")
	fs.Uint64Var(&c.Epsilon, "epsilon", 64, "PREP flush boundary increment ε")
	fs.Uint64Var(&c.LogSize, "log", 256, "shared log entries")
	fs.Int64Var(&c.Seed, "seed", 1, "base seed")
	fs.StringVar(&c.Policy, "policy", "", "fault policy for unfenced lines at crash: dropall, persistall, coinflip[=p], targeted[=k] (empty: built-in fair coin)")
	fs.IntVar(&c.Nested, "nested", 0, "nested crashes to inject inside recovery, per cycle")
	fs.Uint64Var(&c.CrashAt, "crash-at", 0, "pin the workload crash to this event index (0: per-iteration pseudo-random)")
	fs.Uint64Var(&c.NestedAt, "nested-at", 0, "pin nested crashes to this recovery event index (0: per-attempt pseudo-random)")
	fs.BoolVar(&c.Bisect, "bisect", true, "on failure, bisect the crash point before printing the repro")
	fs.IntVar(&c.Epochs, "epochs", 2, "chained crash/recover epochs per iteration")
	fs.IntVar(&c.Jobs, "j", 0, "run up to N crash/recover cycles in parallel (0 = GOMAXPROCS)")
	fs.IntVar(&c.Instances, "instances", 1, "co-resident PREP instances per machine; >1 runs sharded crash cycles (PREP systems only)")
}

// CrashTarget is one system under test: its registry entry plus crashtest's
// own seed offset, which keeps the systems' seed streams disjoint.
type CrashTarget struct {
	drivers.Entry
	offset int64
}

// The per-system seed offsets, keyed by -system spelling (absent: 0). Flat
// cycles run the two PREP modes on one stream; co-resident cycles, PREP-only,
// separate them.
var (
	flatSeedOffsets    = map[string]int64{"cx": 50_000, "soft": 90_000, "onll": 130_000}
	shardedSeedOffsets = map[string]int64{"prep-buffered": 50_000}
)

// CrashTargets resolves a -system spelling ("all": every one) against the
// registry: the recoverable constructions, narrowed under instances > 1 to
// those whose engines can co-reside on one machine.
func CrashTargets(system string, instances int) ([]CrashTarget, error) {
	entries, offsets := drivers.Recoverable(), flatSeedOffsets
	if system != "all" {
		e, err := drivers.Lookup(entries, system)
		if err != nil {
			return nil, runflag.Usage(fmt.Errorf("%w or all", err))
		}
		entries = []drivers.Entry{e}
	}
	if instances > 1 {
		offsets = shardedSeedOffsets
	}
	var out []CrashTarget
	for _, e := range entries {
		if instances <= 1 || e.Instanced {
			out = append(out, CrashTarget{e, offsets[e.Flag]})
		}
	}
	if len(out) == 0 {
		return nil, runflag.Usage(fmt.Errorf("-instances > 1 needs multi-instance region naming; -system=%s has none", system))
	}
	return out, nil
}

// Validate refuses, as a runflag.UsageError naming the flag, a run no cycle
// can honour: counts below one (they check nothing), an unknown -system or
// -policy, an -instances split that cannot be followed, and a geometry a
// target refuses when booted once at the run's sizing.
func (c *CrashConfig) Validate() error {
	var err error
	switch {
	case c.Iterations < 1:
		err = fmt.Errorf("-iterations=%d: need at least one cycle", c.Iterations)
	case c.Workers < 1:
		err = fmt.Errorf("-workers=%d: need at least one worker", c.Workers)
	case c.Epochs < 1:
		err = fmt.Errorf("-epochs=%d: need at least one epoch", c.Epochs)
	case c.Instances < 1:
		err = fmt.Errorf("-instances=%d: need at least one instance", c.Instances)
	case c.Nested < 0:
		err = fmt.Errorf("-nested=%d: a count of nested crashes (0: none)", c.Nested)
	case c.Instances > 1 && c.Workers%c.Instances != 0:
		err = fmt.Errorf("-workers=%d not divisible by -instances=%d", c.Workers, c.Instances)
	case c.Instances > 1 && c.Nested > 0:
		err = fmt.Errorf("-instances > 1 does not compose with -nested")
	default:
		_, err = fault.Parse(c.Policy, 1)
	}
	if err != nil {
		return runflag.Usage(err)
	}
	tgs, err := CrashTargets(c.System, c.Instances)
	if err != nil {
		return err
	}
	for _, tg := range tgs {
		if _, err := c.boot(c.Seed, 0, c.newDrivers(tg)...); err != nil {
			return runflag.Usage(fmt.Errorf("%s at -workers=%d -log=%d -epsilon=%d: %w",
				tg.Name, c.Workers, c.LogSize, c.Epsilon, err))
		}
	}
	return nil
}

// FaultStats is what the fault adversary did across one scope (a cycle, or
// the whole run).
type FaultStats struct {
	Policy           string `json:"policy"`
	PendingDropped   uint64 `json:"pending_dropped"`
	PendingPersisted uint64 `json:"pending_persisted"`
	RecoveryRestarts uint64 `json:"recovery_restarts"`
	ReplayHoles      uint64 `json:"replay_holes"`
	NestedCrashes    uint64 `json:"nested_crashes"`
}

func (f *FaultStats) add(g FaultStats) {
	f.PendingDropped += g.PendingDropped
	f.PendingPersisted += g.PendingPersisted
	f.RecoveryRestarts += g.RecoveryRestarts
	f.ReplayHoles += g.ReplayHoles
	f.NestedCrashes += g.NestedCrashes
}

// CheckBlock is one cycle's verdict: every instance's recorded history
// against its probed recovered state, epoch by epoch.
type CheckBlock struct {
	// Epochs is how many chained crash/recover epochs the cycle ran.
	Epochs int `json:"epochs"`
	// Ops and Partitions total the checked operations and WGL partitions
	// across the cycle's epochs and instances.
	Ops        int `json:"ops"`
	Partitions int `json:"partitions"`
	// Lost is the total completed-update loss the checker had to grant
	// (0 except under the buffered allowance).
	Lost int `json:"lost"`
	// ForeignKeys counts keys the isolation scan found in a recovered
	// instance beyond its probed key range (must be 0).
	ForeignKeys uint64 `json:"foreign_keys"`
	OK          bool   `json:"ok"`
	// FailedEpoch / FailedPartition / Reason locate the first failure
	// (FailedEpoch is -1 when OK).
	FailedEpoch     int    `json:"failed_epoch"`
	FailedPartition string `json:"failed_partition,omitempty"`
	Reason          string `json:"reason,omitempty"`
}

// CheckerSummary aggregates the run's checking.
type CheckerSummary struct {
	Epochs   int `json:"epochs"`
	Cycles   int `json:"cycles"`
	Ops      int `json:"ops"`
	Lost     int `json:"lost"`
	Failures int `json:"failures"`
}

// ShardedBlock is one cycle's multi-instance record (absent when -instances
// is 1).
type ShardedBlock struct {
	Instances int `json:"instances"`
	// RecoveredFirst is the rotating proper subset of instances recovered
	// in the first wave; the rest recovered on a later scheduler.
	RecoveredFirst []int `json:"recovered_first"`
	// Composition audits the routing: every instance's recorded operations,
	// in every epoch, and its last probed keys belong to it.
	Composition linearize.CompositionResult `json:"composition"`
	PerInstance []InstanceCycle             `json:"per_instance"`
}

// InstanceCycle is one instance's verdict within a co-resident cycle, its
// own crash cut in every epoch.
type InstanceCycle struct {
	Instance int    `json:"instance"`
	Ops      int    `json:"ops"`
	Lost     int    `json:"lost"`
	Replayed uint64 `json:"replayed"`
	OK       bool   `json:"ok"`
}

// CrashCycle is one iteration's record in the JSON document. Metrics is the
// whole counter set of the cycle's machine lineage (boot, workload, every
// crash, recovery and probe).
type CrashCycle struct {
	Iteration int  `json:"iteration"`
	OK        bool `json:"ok"`
	// RecoveryVirtualNS is the virtual time the (final, successful) recovery
	// procedures took; Replayed the log entries they re-applied (zero for
	// systems whose recovery attaches to persisted state without replay).
	RecoveryVirtualNS uint64           `json:"recovery_virtual_ns"`
	Replayed          uint64           `json:"replayed"`
	CrashAt           uint64           `json:"crash_at"`
	RecoveryAttempts  int              `json:"recovery_attempts"`
	Fault             FaultStats       `json:"fault"`
	Metrics           metrics.Snapshot `json:"metrics"`
	Check             CheckBlock       `json:"check"`
	Sharded           *ShardedBlock    `json:"sharded,omitempty"`
}

// CrashSystemDoc groups one system's cycles.
type CrashSystemDoc struct {
	System string       `json:"system"`
	Cycles []CrashCycle `json:"cycles"`
}

// CrashDoc is the whole run.
type CrashDoc struct {
	Schema     string           `json:"schema"`
	Iterations int              `json:"iterations"`
	Workers    int              `json:"workers"`
	Epsilon    uint64           `json:"epsilon"`
	LogSize    uint64           `json:"log_size"`
	Seed       int64            `json:"seed"`
	Nested     int              `json:"nested"`
	Instances  int              `json:"instances,omitempty"`
	Fault      FaultStats       `json:"fault"`
	Checker    CheckerSummary   `json:"checker"`
	Systems    []CrashSystemDoc `json:"systems"`
}

// BuildCrashDoc runs the targets' crash/recover cycles and returns the
// document plus the failure count, or c.Validate's refusal. It is the whole
// run minus I/O setup, so tests can drive it deterministically.
func BuildCrashDoc(progress io.Writer, c CrashConfig, tgs []CrashTarget) (CrashDoc, int, error) {
	if err := c.Validate(); err != nil {
		return CrashDoc{}, 0, err
	}
	doc := CrashDoc{
		Schema: CrashSchema, Iterations: c.Iterations, Workers: c.Workers,
		Epsilon: c.Epsilon, LogSize: c.LogSize, Seed: c.Seed, Nested: c.Nested,
		Fault: FaultStats{Policy: c.policyLabel()}, Checker: CheckerSummary{Epochs: c.Epochs},
	}
	banner := "crash/recover cycles"
	if c.Instances > 1 {
		doc.Instances = c.Instances
		banner = fmt.Sprintf("sharded crash/recover cycles (instances=%d)", c.Instances)
	}
	failures := 0
	// Each cycle builds its machine from scratch on a private scheduler, so
	// cycles of one system fan out across Jobs workers; per-cycle records are
	// slotted by iteration index and the progress lines (including any
	// bisected failure repro, which re-runs cycles inside the worker) are
	// buffered and released in iteration order, making both the document and
	// the output identical for every -j value.
	for _, tg := range tgs {
		fmt.Fprintf(progress, "=== %s: %d %s ===\n", tg.Name, c.Iterations, banner)
		sd := CrashSystemDoc{System: tg.Name}
		cycles := make([]CrashCycle, c.Iterations)
		var seqOut par.Seq
		par.Do(par.Jobs(c.Jobs), c.Iterations, func(i int) {
			var buf bytes.Buffer
			cycles[i] = c.runIteration(&buf, tg, i, c.crashEvent(i))
			seqOut.Done(i, func() { progress.Write(buf.Bytes()) })
		})
		for _, cyc := range cycles {
			if !cyc.OK {
				failures++
			}
			doc.Fault.add(cyc.Fault)
			doc.Checker.Cycles++
			doc.Checker.Ops += cyc.Check.Ops
			doc.Checker.Lost += cyc.Check.Lost
			if !cyc.Check.OK {
				doc.Checker.Failures++
			}
			sd.Cycles = append(sd.Cycles, cyc)
		}
		doc.Systems = append(doc.Systems, sd)
	}
	return doc, failures, nil
}

// runIteration is one iteration: the cycle, its progress line and — on
// failure — the error or check verdict and a one-line repro, the crash point
// bisected down first when Bisect is on.
func (c *CrashConfig) runIteration(buf *bytes.Buffer, tg CrashTarget, i int, crashAt uint64) CrashCycle {
	cyc, detail, err := c.cycle(tg, i, crashAt)
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
	} else {
		cb := cyc.Check
		fmt.Fprintf(buf, "       check: epoch %d, %s: %s\n", cb.FailedEpoch, cb.FailedPartition, cb.Reason)
	}
	at := crashAt
	if c.Bisect && (err == nil || cyc.RecoveryAttempts > 0) {
		// A cycle that failed before any recovery ran — boot, or a worker
		// that died before the crash point — fails the same at every one.
		at = c.bisectCrash(buf, tg, i, crashAt)
	}
	fmt.Fprintf(buf, "       repro: %s\n", c.repro(tg, i, at))
	return cyc
}

func (c *CrashConfig) topo() numa.Topology {
	return numa.Topology{Nodes: 2, ThreadsPerNode: (c.Workers + 1) / 2}
}

// sizing is the machine of instance k of K co-resident ones. The only
// instance of a flat cycle gets the shared crash scale at the configured
// worker count, log size and ε; co-residents get a per-instance worker
// slice, their region namespace and a smaller heap (they share the machine).
func (c *CrashConfig) sizing(k, K int) uc.Sizing {
	sz := drivers.CrashScale(c.topo(), c.Workers, c.LogSize, c.Epsilon)
	if K > 1 {
		sz.Workers, sz.HeapWords, sz.Instance = c.Workers/K, 1<<19, fmt.Sprintf("s%d", k)
	}
	return sz
}

// policyLabel names the adversary in output ("" would be ambiguous).
func (c *CrashConfig) policyLabel() string {
	if c.Policy == "" {
		return "default-coin"
	}
	return c.Policy
}

// iterPolicySpec is the policy spec of one iteration: a bare "targeted"
// advances its starting drop index with the iteration so that successive
// cycles sweep different single-line-missing states.
func (c *CrashConfig) iterPolicySpec(iter int) string {
	if c.Policy == "targeted" {
		return fmt.Sprintf("targeted=%d", iter)
	}
	return c.Policy
}

// crashEvent picks the iteration's workload crash point.
func (c *CrashConfig) crashEvent(iter int) uint64 {
	if c.CrashAt != 0 {
		return c.CrashAt
	}
	return 20_000 + uint64(iter)*37_511%600_000
}

// nestedEvent picks the recovery event index at which nested crash attempt
// a of iteration iter fires: attempt 0's point, pinned or placed per
// iteration, shifted by a·257, so a retried recovery is not killed at the
// same point forever and a repro, which pins attempt 0's point, places every
// later attempt where its iteration did. The auto placement stays low so it
// lands inside even short recovery runs.
func (c *CrashConfig) nestedEvent(iter, attempt int) uint64 {
	at := c.NestedAt
	if at == 0 {
		at = 400 + uint64(iter)*733%2600
	}
	return at + uint64(attempt)*257
}

// nestedArm arms a crash inside the first Nested recovery attempts of
// iteration iter (drivers.Recover's nestedAt argument).
func (c *CrashConfig) nestedArm(iter int) func(attempt int) uint64 {
	return func(attempt int) uint64 {
		if attempt < c.Nested {
			return c.nestedEvent(iter, attempt)
		}
		return 0
	}
}

// addRecovery folds one recover-until-done run into the cycle's record.
func (cyc *CrashCycle) addRecovery(rec Recovered) {
	cyc.RecoveryAttempts += rec.Attempts
	cyc.Fault.NestedCrashes += uint64(rec.NestedCrashes)
	cyc.RecoveryVirtualNS += rec.VirtualNS
	for _, n := range rec.Replayed {
		cyc.Replayed += n
	}
}

// recoveryLine renders the recovery half of a flat cycle's progress line.
func (cyc *CrashCycle) recoveryLine() string {
	return fmt.Sprintf("replayed=%d attempts=%d nested=%d restarts=%d recovery=%.3fms(virtual)",
		cyc.Replayed, cyc.RecoveryAttempts, cyc.Fault.NestedCrashes, cyc.Fault.RecoveryRestarts,
		float64(cyc.RecoveryVirtualNS)/1e6)
}

// newDrivers builds tg's co-resident drivers, fresh for one machine lineage.
func (c *CrashConfig) newDrivers(tg CrashTarget) []*uc.Driver {
	ds := make([]*uc.Driver, max(c.Instances, 1))
	for k := range ds {
		ds[k] = tg.New(c.sizing(k, len(ds)))
	}
	return ds
}

// boot boots ds, co-resident, on a fresh machine whose substrate RNG is
// seeded from base and installs iteration iter's fault policy: a fresh value
// per machine lineage, because a stateful policy must not be shared across
// machines.
func (c *CrashConfig) boot(base int64, iter int, ds ...*uc.Driver) (*Machine, error) {
	m, err := BootMachine(c.topo(), nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: uint64(base) + 7,
	}, ds...)
	pol, perr := fault.Parse(c.iterPolicySpec(iter), uint64(base)+11)
	if perr != nil {
		panic(perr) // Validate parsed the spec
	}
	m.Sys.SetFaultPolicy(pol)
	if err != nil {
		err = fmt.Errorf("boot: %w", err)
	}
	return m, err
}

// finish closes a cycle's record with the counters of the cycle's final
// machine and, from them, the adversary's tallies.
func (c *CrashConfig) finish(cyc *CrashCycle, sys *nvm.System) {
	ms := sys.Metrics().Snapshot()
	cyc.Metrics = ms
	cyc.Fault.Policy = c.policyLabel()
	cyc.Fault.PendingDropped = ms.CrashLinesDropped
	cyc.Fault.PendingPersisted = ms.CrashLinesPersisted
	cyc.Fault.RecoveryRestarts = ms.RecoveryRestarts
	cyc.Fault.ReplayHoles = ms.ReplayHoles
}

// keyRange is each instance's key range: small enough that probing all of
// it after every epoch is cheap, large enough to leave collision pressure
// that exercises the overwrite paths.
const keyRange = 128

// instKey is instance k's j-th key. The instance index sits above the key
// range, so the flat cycle's instance 0 is untagged and every key routes
// back to its owner (instOf).
func instKey(k int, j uint64) uint64 { return uint64(k)<<56 | j }

func instOf(key uint64) int { return int(key >> 56) }

// recoverFirst picks the cycle's first-wave recovery subset: a proper
// subset whose start and size both rotate with the cycle's base seed, so an
// Iterations run sweeps recovery orders and a repro, which runs the cycle's
// base as its iteration 0, recovers in the same order. One instance is one
// wave.
func recoverFirst(base int64, n int) []int {
	size, rot := 1, 0
	if n > 1 {
		m := int64(n * (n - 1)) // a multiple of both moduli below
		rot = int((base%m + m) % m)
		size = 1 + rot%(n-1)
	}
	first := make([]int, 0, size)
	for j := 0; j < size; j++ {
		first = append(first, (rot+j)%n)
	}
	return first
}

// cycle runs one iteration and returns its record, its progress line and the
// error a phase answered with, if any (a worker out of heap before the crash
// point is one): such a cycle is recorded failed. The cycle: boot K
// instances, then, Epochs times, drive every instance's workers — the
// paper's mixed set workload at 30% reads, every operation recorded with its
// invoke/response timestamps — into a full-system crash, recover in waves
// (wave 0 until an attempt completes, its first Nested attempts cut down by
// a crash armed inside them; with K > 1 a rotating proper subset first, so
// recovery order independence is exercised across iterations), probe every
// instance's key range and Size, and check each instance's epoch against its
// own recovered state under its own condition — durable, or buffered durable
// with the ε+β−1 loss allowance — with its own crash cut: buffered durable
// linearizability is not local, so instances are not cut together. The
// isolation scan fails the cycle on any key an instance holds beyond its
// range. Each epoch's probed state is the next epoch's initial state, so
// recovery bugs that only corrupt the second crash are still caught. With
// K > 1 the epochs' histories and the last probed states also go through
// linearize.CheckComposition.
func (c *CrashConfig) cycle(tg CrashTarget, iter int, crashAt uint64) (CrashCycle, string, error) {
	K := max(c.Instances, 1)
	wp, base := c.Workers/K, c.Seed+int64(iter)*101+tg.offset
	first := recoverFirst(base, K)
	cyc := CrashCycle{Iteration: iter, CrashAt: crashAt, Check: CheckBlock{Epochs: c.Epochs, OK: true, FailedEpoch: -1}}
	cb := &cyc.Check
	fail := func(epoch int, partition, reason string) {
		if cb.OK {
			cb.OK, cb.FailedEpoch, cb.FailedPartition, cb.Reason = false, epoch, partition, reason
		}
	}
	ds, keys, per := c.newDrivers(tg), make([][]uint64, K), make([]InstanceCycle, K)
	for k := range ds {
		for j := uint64(0); j < keyRange; j++ {
			keys[k] = append(keys[k], instKey(k, j))
		}
		per[k] = InstanceCycle{Instance: k, OK: true}
	}
	spec := workload.SetSpec(30, keyRange)
	spec.Prefill = 0
	hists := make([]linearize.ShardHistory, K)

	m, err := c.boot(base, iter, ds...)
	if err != nil {
		fail(0, "", err.Error())
	}
	inits := make([]any, K)
	epoch := 0
	for ; epoch < c.Epochs && cb.OK; epoch++ {
		recs := make([]*linearize.Recorder, K)
		for k := range recs {
			recs[k] = linearize.NewRecorder(wp)
		}
		if _, err = m.Run(crashAt+uint64(epoch)*7_777, wp, func(t *sim.Thread, k, tid int) {
			gen := workload.NewGen(spec, base+int64(epoch)*53+17, k*wp+tid)
			for {
				op := gen.Next()
				op.A0 = instKey(k, op.A0)
				recs[k].Exec(t, tid, op, func() uint64 { return m.Engines[k].Execute(t, tid, op) })
			}
		}); err != nil {
			err = fmt.Errorf("cycle panicked: %w", err)
			fail(epoch, "", err.Error())
			break
		}

		rec, rerr := m.Recover(c.nestedArm(iter), first)
		cyc.addRecovery(rec)
		var states []map[uint64]uint64
		var foreign []uint64
		if err = rerr; err != nil {
			err = fmt.Errorf("recover: %w", err)
		} else {
			states, foreign, err = m.ProbeState(keys)
		}
		if err != nil {
			fail(epoch, "", err.Error())
			break
		}

		for k := range ds {
			res := m.CheckEpoch(k, inits[k], recs[k].Ops(), states[k])
			cb.Ops += res.Ops
			cb.Partitions += res.Partitions
			cb.Lost += res.Lost
			cb.ForeignKeys += foreign[k]
			pi := &per[k]
			pi.Ops, pi.Lost, pi.Replayed = pi.Ops+res.Ops, pi.Lost+res.Lost, pi.Replayed+rec.Replayed[k]
			pi.OK = pi.OK && res.OK && foreign[k] == 0
			where := res.FailedPartition
			if K > 1 {
				where = fmt.Sprintf("instance %d: %s", k, where)
			}
			switch {
			case !res.OK:
				fail(epoch, where, res.Reason)
			case foreign[k] > 0:
				fail(epoch, where, fmt.Sprintf("%d keys beyond the probed range", foreign[k]))
			}
			inits[k] = states[k]
			hists[k] = linearize.ShardHistory{Shard: k, Ops: append(hists[k].Ops, recs[k].Ops()...), Final: states[k]}
		}
	}
	c.finish(&cyc, m.Sys)
	detail := fmt.Sprintf("epochs=%d ops=%d partitions=%d lost=%d foreign=%d %s",
		cb.Epochs, cb.Ops, cb.Partitions, cb.Lost, cb.ForeignKeys, cyc.recoveryLine())
	if K > 1 {
		comp := linearize.CheckComposition(instOf, hists)
		if !comp.OK {
			fail(epoch-1, "composition", comp.Reason)
		}
		cyc.Sharded = &ShardedBlock{Instances: K, RecoveredFirst: first, Composition: comp, PerInstance: per}
		detail = fmt.Sprintf("instances=%d first=%v epochs=%d ops=%d lost=%d foreign=%d replayed=%d recovery=%.3fms(virtual)",
			K, first, cb.Epochs, cb.Ops, cb.Lost, cb.ForeignKeys, cyc.Replayed, float64(cyc.RecoveryVirtualNS)/1e6)
	}
	cyc.OK = cb.OK
	return cyc, detail, err
}

// repro is the command that re-runs exactly iteration iter's machine
// crashed at crashAt: run as the only iteration with the adjusted -seed it
// reproduces the iteration's seed stream, and the pins fix what the
// iteration index chose — crash point, policy spec and nested crash point.
func (c CrashConfig) repro(tg CrashTarget, iter int, crashAt uint64) string {
	r := c
	r.System, r.Iterations, r.Seed, r.CrashAt = tg.Flag, 1, c.Seed+int64(iter)*101, crashAt
	r.Policy = c.iterPolicySpec(iter)
	if c.Nested > 0 {
		r.NestedAt = c.nestedEvent(iter, 0)
	}
	return runflag.Line("crashtest", r)
}

// bisectCrash binary-searches the smallest failing crash point below the
// observed failure, assuming (best-effort) that the failure boundary is
// monotone between a passing low point and the failing high point.
func (c *CrashConfig) bisectCrash(w io.Writer, tg CrashTarget, iter int, failAt uint64) uint64 {
	cycleOK := func(crashAt uint64) bool {
		cyc, _, _ := c.cycle(tg, iter, crashAt)
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
