package explore

// Leaf machinery: booting and running one workload execution under a forced
// schedule prefix, materializing crash branches (persist-subset masks, via
// COW clones of the frozen machine), driving recovery chains — including a
// nested crash inside recovery — and adjudicating every leaf against the
// durable-linearizability checker.

import (
	"cmp"
	"fmt"
	"sort"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/linearize"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// workRun is one workload execution: the machine, its driver binding, the
// recorded invoke/response history, and (when recorded) the dispatch trace.
type workRun struct {
	d        *uc.Driver
	eng      uc.UC // the engine Boot returned
	sys      *nvm.System
	sch      *sim.Scheduler
	rec      *linearize.Recorder
	tr       *runTrace // nil unless record
	diverged bool
}

// ops returns the workload: a fixed mixed sequence over two keys (conflicting
// writers, an overwrite, a delete) extended with per-index inserts beyond 4.
// Operation i is executed by worker i % Workers, i-th in that worker's
// program order; its detectable-execution invocation id is i+1.
func (cfg *Config) ops() []uc.Op {
	base := []uc.Op{
		uc.Insert(1, 101),
		uc.Insert(1, 202),
		uc.Delete(1),
		uc.Insert(2, 303),
	}
	out := make([]uc.Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		if i < len(base) {
			out = append(out, base[i])
		} else {
			out = append(out, uc.Insert(2, uint64(400+i)))
		}
	}
	return out
}

// prefill returns the boot-time prefill operations: PrefillN inserts on keys
// disjoint from the workload's, durable before the workload starts (they form
// the epoch's initial state and — for PREP — live only in the checkpointed
// heap, outside log-replay's reach).
func (cfg *Config) prefill() []uc.Op {
	out := make([]uc.Op, 0, cfg.PrefillN)
	for i := 0; i < cfg.PrefillN; i++ {
		out = append(out, uc.Insert(uint64(100+i), uint64(1000+i)))
	}
	return out
}

// probeTargets lists every key the workload or prefill can touch, sorted.
func (cfg *Config) probeTargets() []uint64 {
	set := map[uint64]bool{}
	for _, op := range cfg.ops() {
		set[op.A0] = true
	}
	for _, op := range cfg.prefill() {
		set[op.A0] = true
	}
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// runWorkload boots a fresh machine and executes the workload under the
// forced dispatch prefix (minimum-clock beyond it), with a crash armed at
// crashAt. crashAt = 0 runs to completion; a crashAt beyond the execution's
// event horizon also completes, after which the caller may CrashNow for the
// quiescent-crash branch. record additionally captures the dispatch trace
// and the crash-class thresholds. The runaway guard catches workloads that
// fail to quiesce (e.g. a misconfigured engine spinning forever).
func runWorkload(cfg *Config, prefix []int, crashAt uint64, record bool) (*workRun, error) {
	d, err := mkDriver(cfg)
	if err != nil {
		return nil, err
	}
	tp := cfg.topology()

	sys, eng, berr := drivers.Boot(d, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: cfg.BGFlushOneIn, Seed: uint64(cfg.Seed) + 7,
	}, func(t *sim.Thread, _ *nvm.System, eng uc.UC) error {
		ops := cfg.prefill()
		if p, ok := eng.(*core.PREP); ok && len(ops) > 0 {
			// Prefill checkpoints, so the prefilled state is durable in both
			// modes but absent from the log: recovery cannot re-create it by
			// replay, only preserve it. The baselines' Prefill shortcuts are
			// not crash-recoverable, so they prefill through Execute.
			p.Prefill(t, ops)
			return nil
		}
		for _, op := range ops {
			eng.Execute(t, 0, op)
		}
		return nil
	})
	if berr != nil {
		return nil, UsageError{fmt.Errorf("explore: boot of a machine sized -heap=%d -log=%d -epsilon=%d: %w",
			cfg.HeapWords, cfg.LogSize, cfg.Epsilon, berr)}
	}

	rec := linearize.NewRecorder(cfg.Workers)
	ops := cfg.ops()
	var ch *chooser
	sch, err := drivers.Phase(sys, func(sch *sim.Scheduler) {
		ch = &chooser{sch: sch, forced: prefix}
		if record {
			ch.rec = &runTrace{}
			sys.SetAccessHook(ch.noteAccess)
			sys.SetPersistEffectHook(func(int) { ch.rec.addCrashPoint(sch.Events() + 1) })
		}
		sch.SetChooser(ch)
		sch.CrashAtEvent(cmp.Or(crashAt, cfg.MaxRunEvents))
		// The scheduler is cooperative (one goroutine holds the baton at a
		// time), so a plain counter coordinates the aux-thread shutdown.
		running := cfg.Workers
		for tid := 0; tid < cfg.Workers; tid++ {
			sch.Spawn("worker", tp.NodeOf(tid), 0, func(t *sim.Thread) {
				for k := tid; k < len(ops); k += cfg.Workers {
					op := ops[k]
					if d.Detect {
						op.Invid = uint64(k + 1)
					}
					rec.Exec(t, tid, op, func() uint64 { return eng.Execute(t, tid, op) })
				}
				running--
				if running == 0 && d.StopAux != nil {
					d.StopAux(t)
				}
			})
		}
		// The persistence thread (Algorithm 2) is scheduled and crashed like
		// any other thread: its WBINVD / replica-swap cycles are the
		// protocol's most crash-sensitive window. The last worker to finish
		// stops it.
		if d.SpawnAux != nil {
			d.SpawnAux()
		}
	})
	if record {
		sys.SetAccessHook(nil)
		sys.SetPersistEffectHook(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("explore: %s workload: %w", d.Name, err)
	}
	if crashAt == 0 && sch.Frozen() {
		return nil, fmt.Errorf("explore: %s workload did not quiesce within %d events",
			d.Name, cfg.MaxRunEvents)
	}
	return &workRun{d: d, eng: eng, sys: sys, sch: sch, rec: rec, tr: ch.rec, diverged: ch.diverged}, nil
}

// recRun is one recovery execution over a frozen machine's crash branch.
type recRun struct {
	sys      *nvm.System // the materialized system the recovery ran on
	eng      uc.UC       // the engine recovery rebuilt
	fp       uint64      // persisted fingerprint right after materialization
	resolved map[uint64]uint64
	frozen   bool     // a nested crash cut the recovery short
	events   uint64   // recovery run's event count
	nested   []uint64 // persist-relevant crash thresholds inside recovery (trace only)
}

// recoverOnce clones the frozen machine frozenSys, materializes its crash
// under fault.Subset(mask), and runs one attempt of the driver's recovery
// procedure on it (drivers.RecoverOnce). nestedAt > 0 arms a crash inside
// the recovery; trace collects the recovery's own persist-relevant crash
// thresholds for depth-2 branching. The clone leaves frozenSys untouched, so
// one frozen machine fans out across every mask and nested point.
func recoverOnce(cfg *Config, d *uc.Driver, frozenSys *nvm.System, mask uint64,
	nestedAt uint64, trace bool) (*recRun, error) {
	c := frozenSys.Clone(nil) // never run: the clone is immediately recovered
	c.SetFaultPolicy(fault.Subset(mask))
	r := c.Recover(nil)
	out := &recRun{sys: r, fp: r.PersistedFingerprint()}
	var recSch *sim.Scheduler
	var nested runTrace
	rec, err := drivers.RecoverOnce(d, r, func(sch *sim.Scheduler) {
		recSch = sch
		if trace {
			r.SetAccessHook(func(a nvm.Access) {
				if a.PersistEffect() {
					nested.addCrashPoint(sch.Events() + 1)
				}
			})
			r.SetPersistEffectHook(func(int) { nested.addCrashPoint(sch.Events() + 1) })
		}
		sch.CrashAtEvent(cmp.Or(nestedAt, cfg.MaxRunEvents))
	}, nil)
	if trace {
		r.SetAccessHook(nil)
		r.SetPersistEffectHook(nil)
	}
	out.eng, out.resolved, out.nested = rec.Eng, rec.Info.Resolved, nested.crashPts
	out.frozen, out.events = rec.NestedCrashes > 0, recSch.Events()
	// Every failure mode of the recovery run itself — spinning forever on a
	// corrupted structure, returning an error, panicking, deadlocking — is a
	// *leaf verdict* (the protocol failed to recover this crash), reported as
	// a counterexample by the caller, not an explorer failure.
	if out.frozen && nestedAt == 0 {
		return nil, fmt.Errorf("%s recovery did not quiesce within %d events",
			d.Name, cfg.MaxRunEvents)
	}
	if err != nil {
		return nil, fmt.Errorf("%s recovery failed: %w", d.Name, err)
	}
	return out, nil
}

// probeState reads back the recovered (or live) state over the probe keys
// on a fresh scheduler. A probe that spins forever or panics (a read walk
// over a corrupted structure) is a leaf verdict like a failed recovery.
func probeState(cfg *Config, eng uc.UC, sys *nvm.System) (map[uint64]uint64, error) {
	out := map[uint64]uint64{}
	var perr error
	sch, err := drivers.Phase(sys, func(sch *sim.Scheduler) {
		sch.CrashAtEvent(cfg.MaxRunEvents)
		sch.Spawn("probe", 0, 0, func(t *sim.Thread) {
			defer sim.PanicToErr("probe", &perr)
			for _, k := range cfg.probeTargets() {
				if v := eng.Execute(t, 0, uc.Get(k)); v != uc.NotFound {
					out[k] = v
				}
			}
		})
	})
	if err := cmp.Or(perr, err); err != nil {
		return nil, err
	}
	if sch.Frozen() {
		return nil, fmt.Errorf("probe of recovered state did not quiesce within %d events",
			cfg.MaxRunEvents)
	}
	return out, nil
}

// adjudicate checks one leaf: the recorded history (with crash-cut
// operations resolved through detectable execution's verdict map when the
// driver supports it), the prefill-derived initial state, and the probed
// recovered state must admit a durable linearization — buffered durable with
// the ε+β−1 allowance for PREP-Buffered unless strict is forced (the
// crash-free completion leaf, where nothing may be lost).
func adjudicate(cfg *Config, d *uc.Driver, rec *linearize.Recorder,
	resolved map[uint64]uint64, probed map[uint64]uint64, strict bool) linearize.Result {
	model := linearize.SetModel()
	ops := rec.Ops()
	if d.Detect {
		// Recorder groups ops by client in program order; operation j of
		// worker w is global workload index w + j*Workers, invocation id
		// index+1 (see Config.ops).
		next := make(map[int]int, cfg.Workers)
		for i := range ops {
			j := next[ops[i].Client]
			next[ops[i].Client] = j + 1
			if ops[i].Class != linearize.InFlight {
				continue
			}
			invid := uint64(ops[i].Client + j*cfg.Workers + 1)
			if r, ok := resolved[invid]; ok {
				ops[i].Class, ops[i].Result = linearize.InFlightCommitted, r
			} else {
				ops[i].Class = linearize.InFlightNever
			}
		}
	}
	opt := linearize.Options{}
	if d.Buffered && !strict {
		opt = linearize.Options{Buffered: true, Allowance: d.LossBound(cfg.topology().ThreadsPerNode)}
	}
	init := linearize.Replay(model, nil, cfg.prefill())
	return linearize.CheckEpoch(model, init, ops, probed, opt)
}

// quiesce turns a workload whose armed crash never arrived (the quiescent
// crash class: the threshold lies past the last event) into a crash of the
// idle machine, so every crash branch hands on a frozen one.
func (wr *workRun) quiesce() {
	if !wr.sch.Frozen() {
		wr.sch.CrashNow()
	}
}

// completion evaluates the crash-free leaf of wr: nothing crashed, so strict
// durable linearizability even for buffered constructions — the probed state
// must reflect every operation.
func completion(cfg *Config, wr *workRun) linearize.Result {
	probed, err := probeState(cfg, wr.eng, wr.sys)
	if err != nil {
		return linearize.Result{Reason: err.Error()}
	}
	return adjudicate(cfg, wr.d, wr.rec, nil, probed, true)
}

// settle evaluates one crash leaf of the workload cw: recover the frozen
// machine (cw's own, or the wreck of a recovery a nested crash cut short)
// under mask to completion, probe the result, adjudicate it against cw's
// history. A recovery or probe that hangs, errors or panics is the leaf's
// verdict. The recovery run comes back whenever it completed — even if the
// probe then failed — and nil otherwise.
func settle(cfg *Config, cw *workRun, frozen *nvm.System, mask uint64, trace bool) (*recRun, linearize.Result) {
	rr, err := recoverOnce(cfg, cw.d, frozen, mask, 0, trace)
	if err != nil {
		return nil, linearize.Result{Reason: err.Error()}
	}
	probed, err := probeState(cfg, rr.eng, rr.sys)
	if err != nil {
		return rr, linearize.Result{Reason: err.Error()}
	}
	return rr, adjudicate(cfg, cw.d, cw.rec, rr.resolved, probed, false)
}

// sampleUint64 evenly samples at most max values (0 = no cap), always
// keeping the first and last, preserving order.
func sampleUint64(vs []uint64, max int) ([]uint64, bool) {
	if max <= 0 || len(vs) <= max {
		return vs, false
	}
	if max == 1 {
		return vs[:1], true
	}
	out := make([]uint64, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, vs[i*(len(vs)-1)/(max-1)])
	}
	// The even stride can repeat endpoints on tiny inputs; dedup keeps order.
	ded := out[:1]
	for _, v := range out[1:] {
		if v != ded[len(ded)-1] {
			ded = append(ded, v)
		}
	}
	return ded, true
}
