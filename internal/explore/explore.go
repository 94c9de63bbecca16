// Package explore is the bounded exhaustive explorer: a model checker for
// the recovery protocol that, for a tiny configuration, enumerates every
// schedule (up to DPOR equivalence), every crash-point equivalence class
// along each schedule, every persist-subset materialization of each crash,
// and — at depth 2 — every persist-relevant crash inside recovery itself,
// adjudicating durable linearizability at every leaf.
//
// The state space is a tree:
//
//	schedule branch   one dispatch order of the workload (DPOR-reduced)
//	└ crash branch    one crash-point equivalence class along it
//	  └ mask branch   one subset of the pending flush set materialized
//	    └ nested …    (depth 2) one crash inside the recovery run
//	      └ leaf      recovered state, probed and checked
//
// Everything is deterministic: the simulator's virtual machine under a
// forced dispatch prefix replays executions exactly, fault.Subset pins the
// crash materialization, and Config.Seed seeds the one RNG there is, the
// substrate's — so a counterexample is a four-tuple (schedule prefix,
// crash event, persist mask, nested pair) that reproduces on any host,
// any -j, any time.
package explore

import (
	"cmp"
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"prepuc/internal/drivers"
	"prepuc/internal/linearize"
	"prepuc/internal/par"
	"prepuc/internal/runflag"
)

// Schema identifies the explorer's JSON report format.
const Schema = "prepuc-explore/v1"

// Config sizes and selects one exploration. Flags declares prepexplore's
// flag for each field (named in the field's comment), and its usage string
// says what the field means.
type Config struct {
	System  string // -system
	Workers int    // -workers; workload op i runs on worker i%Workers
	Ops     int    // -ops
	// PrefillN (-prefill) keys, disjoint from the workload's, are inserted
	// before the epoch starts; for PREP they are checkpointed and absent
	// from the log, so recovery must preserve rather than re-create them.
	PrefillN     int
	Seed         int64  // -seed: the substrate RNG (+7); the schedulers draw nothing
	Jobs         int    // -j
	Depth        int    // -depth
	Detect       bool   // -detect
	BGFlushOneIn uint64 // -bg; nonzero makes NVM stores crash-branch points
	// MaskBits (-mask-bits) caps exhaustive persist-subset enumeration:
	// larger pending sets fall back to an adversarial capped set (and mark
	// the report truncated).
	MaskBits int
	// MaxRounds (-rounds) is the delay bound: the worklist runs in BFS
	// rounds, each deviating from schedules of the previous round at one
	// more DPOR backtrack point, so round r covers every schedule reachable
	// with at most r-1 forced deviations from the baseline. Race-complete
	// exploration of a spinning, combining engine is exponential; the delay
	// bound is the explorer's declared systematic bound (alongside Depth),
	// and the report records the prefixes left unexplored when it bites.
	// Unbounded, MaxSchedules is the only brake.
	MaxRounds      int
	MaxSchedules   int    // -max-schedules: a runaway guard; hitting it truncates the report
	MaxCrashPoints int    // -max-crash-points
	MaxNested      int    // -max-nested
	MaxRunEvents   uint64 // -max-events
	Nodes          int    // -nodes
	Epsilon        uint64 // -epsilon
	LogSize        uint64 // -log
	HeapWords      uint64 // -heap
}

// Flags declares c's flags on fs. Every default but -system's is the zero
// value, which Run fills in, so a Config renders as the flags set in it.
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.StringVar(&c.System, "system", "prep-durable", "construction: "+strings.Join(drivers.Flags(drivers.Recoverable()), ", "))
	fs.IntVar(&c.Workers, "workers", 0, "concurrent workload clients (0: default 2)")
	fs.IntVar(&c.Ops, "ops", 0, "workload operations, round-robined over the workers (0: default 3)")
	fs.IntVar(&c.PrefillN, "prefill", 0, "keys inserted (and checkpointed) before the explored epoch")
	fs.Int64Var(&c.Seed, "seed", 0, "base seed for every scheduler and substrate RNG (0: default 1)")
	fs.IntVar(&c.Jobs, "j", 0, "host-side parallelism (0 = GOMAXPROCS; the report is invariant under -j)")
	fs.IntVar(&c.Depth, "depth", 0, "crash nesting depth: 2 also crashes each recovery at its persist-relevant points (0: default 1)")
	fs.BoolVar(&c.Detect, "detect", false, "detectable execution: adjudicate crash-cut ops as InFlightCommitted/InFlightNever (PREP only)")
	fs.Uint64Var(&c.BGFlushOneIn, "bg", 0, "background write-back rate: one-in-N chance per NVM store (0: off)")
	fs.IntVar(&c.MaxRounds, "rounds", 0, "DPOR delay bound in BFS rounds (0: default 3; negative: unbounded)")
	fs.IntVar(&c.MaskBits, "mask-bits", 0, "exhaustive persist-mask limit: crashes with <= N pending lines branch over all 2^N subsets (0: default 10)")
	fs.IntVar(&c.MaxSchedules, "max-schedules", 0, "schedule-prefix execution budget (0: default 4096)")
	fs.IntVar(&c.MaxCrashPoints, "max-crash-points", 0, "sample at most N crash classes per schedule (0: all)")
	fs.IntVar(&c.MaxNested, "max-nested", 0, "sample at most N nested crash points per mask branch (0: depth-2 default 2; negative: all)")
	fs.Uint64Var(&c.MaxRunEvents, "max-events", 0, "per-execution event guard against non-quiescing runs (0: default 5e6)")
	fs.IntVar(&c.Nodes, "nodes", 0, "NUMA nodes (0: default 2)")
	fs.Uint64Var(&c.Epsilon, "epsilon", 0, "PREP flush boundary increment ε (0: default 8)")
	fs.Uint64Var(&c.LogSize, "log", 0, "shared log entries (0: default 64)")
	fs.Uint64Var(&c.HeapWords, "heap", 0, "persistent heap words (0: default 4096)")
}

// defaults rejects the sizes no run can honour, naming the field, and fills in
// the zero ones.
func (cfg *Config) defaults() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Workers", cfg.Workers}, {"Ops", cfg.Ops}, {"PrefillN", cfg.PrefillN}} {
		if f.v < 0 {
			return runflag.Usage(fmt.Errorf("explore: %s must not be negative, got %d", f.name, f.v))
		}
	}
	if cfg.Depth < 0 || cfg.Depth > 2 {
		return runflag.Usage(fmt.Errorf("explore: Depth must be 1 or 2 (0: the default, 1), got %d", cfg.Depth))
	}
	cfg.System = cmp.Or(cfg.System, "prep-durable")
	cfg.Workers = cmp.Or(cfg.Workers, 2)
	cfg.Ops = cmp.Or(cfg.Ops, 3)
	cfg.Seed = cmp.Or(cfg.Seed, 1)
	cfg.Depth = cmp.Or(cfg.Depth, 1)
	if cfg.Depth >= 2 {
		// Depth-2 multiplies every mask branch by (nested points x nested
		// masks); unsampled it dwarfs depth 1 without finding different
		// bugs. Explicit MaxNested<0 is "really all".
		cfg.MaxNested = cmp.Or(cfg.MaxNested, 2)
	}
	cfg.MaskBits = cmp.Or(cfg.MaskBits, 10)
	cfg.MaxRounds = cmp.Or(cfg.MaxRounds, 3)
	cfg.MaxSchedules = cmp.Or(cfg.MaxSchedules, 4096)
	cfg.MaxRunEvents = cmp.Or(cfg.MaxRunEvents, 5_000_000)
	cfg.Nodes = cmp.Or(cfg.Nodes, 2)
	scale := drivers.ExploreScale()
	cfg.Epsilon = cmp.Or(cfg.Epsilon, scale.Epsilon)
	cfg.LogSize = cmp.Or(cfg.LogSize, scale.LogSize)
	cfg.HeapWords = cmp.Or(cfg.HeapWords, scale.HeapWords)
	return nil
}

// Counterexample is one leaf that failed adjudication, with everything
// needed to replay it.
type Counterexample struct {
	System string `json:"system"`
	// Phase is "completion" (the crash-free leaf failed strict
	// linearizability) or "crash".
	Phase string `json:"phase"`
	// Schedule is the forced dispatch prefix that reproduces the execution
	// (decisions beyond it follow the deterministic minimum-clock rule).
	Schedule []int  `json:"schedule"`
	CrashAt  uint64 `json:"crash_at,omitempty"`
	Mask     string `json:"mask,omitempty"`
	NestedAt uint64 `json:"nested_at,omitempty"`
	// NestedMask is the persist mask of the crash inside recovery.
	NestedMask string `json:"nested_mask,omitempty"`
	Partition  string `json:"partition,omitempty"`
	Reason     string `json:"reason"`
	// Trace is the dispatch trace up to the crash, one line per dispatch.
	Trace []string `json:"trace"`
	// Repro is a one-line prepexplore invocation replaying exactly this leaf.
	Repro string `json:"repro"`
}

// Report is the explorer's result, stable across hosts and Jobs settings
// (WallMS excepted).
type Report struct {
	Schema  string `json:"schema"`
	System  string `json:"system"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`
	Depth   int    `json:"depth"`
	Seed    int64  `json:"seed"`
	Detect  bool   `json:"detect"`

	// PrefixRuns counts workload executions launched to mine schedules;
	// Schedules counts the distinct executions found (DPOR backtracks that
	// deterministically converge to an already-seen schedule are run but
	// not re-explored). Rounds is the number of BFS rounds executed and
	// UnexploredPrefixes the backtrack prefixes still queued when the
	// MaxRounds delay bound stopped the search (0 = the frontier drained).
	PrefixRuns         int    `json:"prefix_runs"`
	Schedules          int    `json:"schedules"`
	Rounds             int    `json:"rounds"`
	UnexploredPrefixes int    `json:"unexplored_prefixes"`
	ChoicePoints       uint64 `json:"choice_points"`
	// DPORBranches counts backtrack prefixes queued; DPORPruned counts
	// co-enabled commuting alternatives proven not to need a branch.
	DPORBranches uint64 `json:"dpor_branches"`
	DPORPruned   uint64 `json:"dpor_pruned"`

	CrashBranches  int `json:"crash_branches"`
	MaskBranches   int `json:"mask_branches"`
	CappedMasks    int `json:"capped_masks"`
	NestedBranches int `json:"nested_branches"`
	Leaves         int `json:"leaves"`
	MaxDepth       int `json:"max_depth"`

	// DistinctStates counts distinct post-crash materialization
	// fingerprints across all leaves; Fingerprints lists them (sorted) for
	// cross-validation against sampling harnesses.
	DistinctStates int      `json:"distinct_states"`
	Fingerprints   []string `json:"fingerprints"`

	// Truncated reports any coverage cap hit (schedule budget, crash-point
	// or nested sampling, capped masks): the run was not exhaustive.
	Truncated bool `json:"truncated"`
	// Diverged counts forced prefixes that named a non-dispatchable thread
	// (always 0 unless the DPOR analysis is buggy).
	Diverged int `json:"diverged"`

	Counterexamples []Counterexample `json:"counterexamples"`
	WallMS          float64          `json:"wall_ms"`
}

// bRes is one schedule's crash-exploration result (phase B of a round).
type bRes struct {
	crashBranches, maskBranches, cappedMasks int
	nestedBranches, leaves, maxDepth         int
	truncated                                bool
	fps                                      []uint64
	ces                                      []Counterexample
	err                                      error
}

// Run explores the configured state space to exhaustion (or its caps) and
// reports. The traversal runs in BFS rounds so host parallelism never
// changes the result: phase A executes the current prefix frontier and
// mines DPOR backtracks, phase B crash-explores the novel schedules; all
// aggregation happens in frontier index order.
func Run(cfg Config) (*Report, error) {
	given := cfg
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &Report{
		Schema: Schema, System: cfg.System, Workers: cfg.Workers, Ops: cfg.Ops,
		Depth: cfg.Depth, Seed: cfg.Seed, Detect: cfg.Detect, MaxDepth: 1,
	}
	jobs := par.Jobs(cfg.Jobs)

	type aRes struct {
		prefix     []int
		wr         *workRun
		backtracks [][]int
		pruned     uint64
		err        error
	}

	seenSched := map[string]bool{}            // full schedules already crash-explored
	queuedPrefix := map[string]bool{"": true} // prefixes ever frontiered
	fpSet := map[uint64]bool{}
	frontier := [][]int{nil}

	for len(frontier) > 0 {
		if cfg.MaxSchedules > 0 && rep.PrefixRuns+len(frontier) > cfg.MaxSchedules {
			keep := cfg.MaxSchedules - rep.PrefixRuns
			if keep < 0 {
				keep = 0
			}
			frontier = frontier[:keep]
			rep.Truncated = true
			if keep == 0 {
				break
			}
		}

		// Phase A: execute and record every frontier prefix.
		ares := make([]aRes, len(frontier))
		par.Do(jobs, len(frontier), func(i int) {
			wr, err := runWorkload(&cfg, frontier[i], 0, true)
			if err != nil {
				ares[i] = aRes{err: err}
				return
			}
			bts, pruned := analyze(wr.tr)
			// Candidate snapshots are only needed by analyze; drop them so
			// retained traces cost one access per dispatch, not per candidate.
			for k := range wr.tr.dispatches {
				wr.tr.dispatches[k].cands = nil
			}
			ares[i] = aRes{prefix: frontier[i], wr: wr, backtracks: bts, pruned: pruned}
		})

		// Aggregate phase A in index order; collect novel schedules.
		var novel []int
		var next [][]int
		for i := range ares {
			a := &ares[i]
			if a.err != nil {
				return nil, a.err
			}
			rep.PrefixRuns++
			rep.ChoicePoints += a.wr.tr.choicePts
			rep.DPORPruned += a.pruned
			if a.wr.diverged {
				rep.Diverged++
			}
			for _, bt := range a.backtracks {
				k := prefixKey(bt)
				if !queuedPrefix[k] {
					queuedPrefix[k] = true
					rep.DPORBranches++
					next = append(next, bt)
				}
			}
			sk := prefixKey(a.wr.tr.schedule())
			if seenSched[sk] {
				a.wr = nil // duplicate execution: free the machine
				continue
			}
			seenSched[sk] = true
			novel = append(novel, i)
		}

		// Phase B: crash-explore each novel schedule.
		bres := make([]bRes, len(novel))
		par.Do(jobs, len(novel), func(k int) {
			a := &ares[novel[k]]
			bres[k] = exploreSchedule(&cfg, &given, a.prefix, a.wr)
		})
		for k := range bres {
			b := &bres[k]
			if b.err != nil {
				return nil, b.err
			}
			rep.CrashBranches += b.crashBranches
			rep.MaskBranches += b.maskBranches
			rep.CappedMasks += b.cappedMasks
			rep.NestedBranches += b.nestedBranches
			rep.Leaves += b.leaves
			if b.maxDepth > rep.MaxDepth {
				rep.MaxDepth = b.maxDepth
			}
			rep.Truncated = rep.Truncated || b.truncated
			for _, fp := range b.fps {
				fpSet[fp] = true
			}
			rep.Counterexamples = append(rep.Counterexamples, b.ces...)
			ares[novel[k]].wr = nil
		}

		rep.Rounds++
		if cfg.MaxRounds > 0 && rep.Rounds >= cfg.MaxRounds {
			rep.UnexploredPrefixes = len(next)
			next = nil
		}
		frontier = next
	}

	rep.Schedules = len(seenSched)
	rep.DistinctStates = len(fpSet)
	rep.Fingerprints = make([]string, 0, len(fpSet))
	for fp := range fpSet {
		rep.Fingerprints = append(rep.Fingerprints, fmt.Sprintf("%016x", fp))
	}
	sort.Strings(rep.Fingerprints)
	rep.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return rep, nil
}

// exploreSchedule runs phase B for one recorded execution: the crash-free
// completion leaf, then every (crash class x persist mask [x nested crash x
// nested mask]) leaf reachable along it. A leaf that fails — a recovery or
// probe that hangs, errors or panics included — is recorded and the
// remaining branches still get explored.
func exploreSchedule(cfg, given *Config, prefix []int, wr *workRun) bRes {
	out := bRes{maxDepth: 1}
	check := func(lf Leaf, res linearize.Result) {
		if !res.OK {
			out.ces = append(out.ces, mkCE(cfg, given, lf, wr.tr, res))
		}
	}

	check(Leaf{Schedule: prefix}, completion(cfg, wr))
	out.leaves++

	// Crash classes: one representative per equivalence class — the
	// earliest point (1), one point just past each persist-relevant
	// dispatch, and the quiescent crash just past the last event.
	E := wr.sch.Events()
	pts := make([]uint64, 0, len(wr.tr.crashPts)+2)
	pts = append(pts, 1)
	for _, n := range wr.tr.crashPts {
		if n != pts[len(pts)-1] {
			pts = append(pts, n)
		}
	}
	if pts[len(pts)-1] < E+1 {
		pts = append(pts, E+1)
	}
	pts, trunc := sampleUint64(pts, cfg.MaxCrashPoints)
	out.truncated = out.truncated || trunc

	for _, n := range pts {
		cw, err := runWorkload(cfg, prefix, n, false)
		if err != nil {
			out.err = err
			return out
		}
		cw.quiesce()
		out.crashBranches++
		masks, capped := maskList(cw.sys.PendingLines(), cfg.MaskBits)
		if capped {
			out.cappedMasks++
			out.truncated = true
		}
		for _, mask := range masks {
			out.maskBranches++
			lf := Leaf{Schedule: prefix, CrashAt: n, Mask: mask}
			rr, res := settle(cfg, cw, cw.sys, mask, cfg.Depth >= 2)
			out.leaves++
			check(lf, res)
			if rr == nil {
				continue
			}
			out.fps = append(out.fps, rr.fp)
			if cfg.Depth < 2 {
				continue
			}

			// Depth 2: crash the recovery itself at each of its
			// persist-relevant points, then recover the wreckage.
			nested := rr.nested
			for len(nested) > 0 && nested[len(nested)-1] > rr.events {
				nested = nested[:len(nested)-1]
			}
			nested, tr2 := sampleUint64(nested, cfg.MaxNested)
			out.truncated = out.truncated || tr2
			for _, n2 := range nested {
				lf.NestedAt, lf.NestedMask = n2, 0
				r1, err := recoverOnce(cfg, cw.d, cw.sys, mask, n2, false)
				if err != nil {
					// The nested arm was set but the recovery failed on its
					// own (an error or panic before event n2).
					out.nestedBranches++
					check(lf, linearize.Result{Reason: err.Error()})
					continue
				}
				if !r1.frozen {
					// Threshold past the recovery's last event: the nested
					// crash never fired; the completed recovery is the
					// depth-1 leaf already checked above.
					continue
				}
				out.nestedBranches++
				masks2, capped2 := maskList(r1.sys.PendingLines(), cfg.MaskBits)
				if capped2 {
					out.cappedMasks++
					out.truncated = true
				}
				for _, m2 := range masks2 {
					out.maskBranches++
					lf.NestedMask = m2
					_, res := settle(cfg, cw, r1.sys, m2, false)
					out.leaves++
					out.maxDepth = 2
					check(lf, res)
				}
			}
		}
	}
	return out
}

// mkCE assembles the counterexample record of a failed leaf: lf.CrashAt == 0
// is the completion leaf, lf.NestedAt == 0 a depth-1 crash leaf. Its Repro is
// rendered from the Config as given, before defaults filled it in.
func mkCE(cfg, given *Config, lf Leaf, tr *runTrace, res linearize.Result) Counterexample {
	ce := Counterexample{
		System:    cfg.System,
		Phase:     "completion",
		Schedule:  append([]int(nil), lf.Schedule...),
		CrashAt:   lf.CrashAt,
		Partition: res.FailedPartition,
		Reason:    res.Reason,
		Trace:     renderTrace(tr, lf.CrashAt),
		Repro:     given.repro(lf),
	}
	if lf.CrashAt != 0 {
		ce.Phase = "crash"
		ce.Mask = fmt.Sprintf("0x%x", lf.Mask)
		if lf.NestedAt != 0 {
			ce.NestedAt = lf.NestedAt
			ce.NestedMask = fmt.Sprintf("0x%x", lf.NestedMask)
		}
	}
	return ce
}

// repro is the one-line prepexplore invocation replaying leaf lf of the run
// c describes. -repro-schedule is always written: an empty one (the root
// schedule) is what selects repro mode for a completion leaf.
func (c Config) repro(lf Leaf) string {
	return runflag.Line("prepexplore", reproRun{c, lf}, "repro-schedule")
}

// reproRun is prepexplore's command line in repro mode: a run and its leaf.
type reproRun struct {
	Config
	Leaf
}

func (r *reproRun) Flags(fs *flag.FlagSet) {
	r.Config.Flags(fs)
	r.Leaf.Flags(fs)
}

// Leaf names one leaf of the exploration tree for replay; Flags declares
// prepexplore's -repro-* flag for each field, named in its comment.
type Leaf struct {
	Schedule   []int  // -repro-schedule: the forced dispatch prefix (nil: the root schedule)
	CrashAt    uint64 // -repro-crash-at; 0 is the crash-free completion leaf, the rest ignored
	Mask       uint64 // -repro-mask: the persist-subset materialization
	NestedAt   uint64 // -repro-nested-at; 0 is a depth-1 leaf
	NestedMask uint64 // -repro-nested-mask
}

// Flags declares l's flags on fs.
func (l *Leaf) Flags(fs *flag.FlagSet) {
	fs.Var((*scheduleValue)(&l.Schedule), "repro-schedule", "repro mode: forced dispatch prefix, comma-separated thread ids (empty value = root schedule)")
	fs.Uint64Var(&l.CrashAt, "repro-crash-at", 0, "repro mode: crash event threshold (0: crash-free completion leaf)")
	fs.Uint64Var(&l.Mask, "repro-mask", 0, "repro mode: persist mask (0x prefix: hex)")
	fs.Uint64Var(&l.NestedAt, "repro-nested-at", 0, "repro mode: nested crash event inside recovery (0: depth 1)")
	fs.Uint64Var(&l.NestedMask, "repro-nested-mask", 0, "repro mode: nested persist mask (0x prefix: hex)")
}

// scheduleValue is a dispatch prefix as a flag: comma-separated thread ids.
type scheduleValue []int

func (s *scheduleValue) String() string { return prefixKey(*s) }

func (s *scheduleValue) Set(v string) error {
	*s = nil
	if v == "" {
		return nil
	}
	for _, p := range strings.Split(v, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad schedule entry %q: %v", p, err)
		}
		*s = append(*s, id)
	}
	return nil
}

// Repro replays exactly one leaf through the evaluation Run found it with,
// returning the verdict and (on failure) the counterexample record.
func Repro(cfg Config, lf Leaf) (linearize.Result, *Counterexample, error) {
	given := cfg
	if err := cfg.defaults(); err != nil {
		return linearize.Result{}, nil, err
	}
	wr, err := runWorkload(&cfg, lf.Schedule, lf.CrashAt, true)
	if err != nil {
		return linearize.Result{}, nil, err
	}
	var res linearize.Result
	switch {
	case lf.CrashAt == 0:
		res = completion(&cfg, wr)
	case lf.NestedAt == 0:
		wr.quiesce()
		_, res = settle(&cfg, wr, wr.sys, lf.Mask, false)
	default:
		wr.quiesce()
		r1, err := recoverOnce(&cfg, wr.d, wr.sys, lf.Mask, lf.NestedAt, false)
		switch {
		case err != nil:
			res.Reason = err.Error()
		case !r1.frozen:
			return res, nil, runflag.Usage(fmt.Errorf("explore: nested crash at %d never fired (recovery ran %d events)",
				lf.NestedAt, r1.events))
		default:
			_, res = settle(&cfg, wr, r1.sys, lf.NestedMask, false)
		}
	}
	if res.OK {
		return res, nil, nil
	}
	ce := mkCE(&cfg, &given, lf, wr.tr, res)
	return res, &ce, nil
}

// StrideSweep is the sampling harness the explorer subsumes: it replays the
// root (minimum-clock) schedule, crashes it at every stride-th event plus
// the quiescent point, materializes each crash with the substrate's default
// coin policy, and returns the post-materialization persisted fingerprint of
// each point. Every fingerprint it can produce corresponds to some (crash
// class, persist mask) leaf of Run on the same Config — the cross-check that
// validates crash-class pruning (internal/harness).
func StrideSweep(cfg Config, stride uint64) ([]uint64, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if stride == 0 {
		stride = 1
	}
	wr0, err := runWorkload(&cfg, nil, 0, false)
	if err != nil {
		return nil, err
	}
	E := wr0.sch.Events()
	var fps []uint64
	sweep := func(n uint64) error {
		wr, err := runWorkload(&cfg, nil, n, false)
		if err != nil {
			return err
		}
		wr.quiesce()
		r := wr.sys.Recover(nil)
		fps = append(fps, r.PersistedFingerprint())
		return nil
	}
	for n := uint64(1); n <= E; n += stride {
		if err := sweep(n); err != nil {
			return nil, err
		}
	}
	if err := sweep(E + 1); err != nil {
		return nil, err
	}
	return fps, nil
}
