package harness

// serve.go drives the asynchronous service front-end (internal/svc) with an
// open-loop arrival schedule (internal/openloop): per-shard injector threads
// release operations at their pre-generated arrival instants into the
// submission rings, consumer threads drain them in batches, and every
// completion's latency (DoneNS − ArrivalNS) lands in a log-linear histogram —
// so a stalled server accumulates queueing delay against the percentiles
// instead of silently thinning the arrival stream (no coordinated omission).
//
// The crash scenario freezes the whole machine at a fixed virtual instant
// while the open-loop load is running, recovers the construction, rebuilds
// the (volatile) service rings, and resumes injection where the pre-crash
// completion prefix ended. How the in-flight window (submitted but not
// completed at the cut) resumes depends on the driver:
//
//   - detectable drivers (PREP with operation descriptors) query recovery's
//     resolved map: an operation resolved as committed has its recorded
//     result delivered at the resume instant and is never resubmitted —
//     exactly-once; one resolved as never-applied is resubmitted, which the
//     verdict proves cannot double-apply;
//   - non-detectable drivers blindly retry the whole window (at-least-once,
//     as a real client with a dead connection would).
//
// Arrivals that fell into the outage window are submitted immediately at
// resume with their original arrival stamps, so the outage is fully charged
// to their latencies. The report carries the recovery stall window, how
// long the accumulated backlog took to drain, and — for detectable drivers
// — the resolution tallies plus a measured duplicates_applied count.
//
// With ServeConfig.Check the run is additionally verified for (buffered)
// durable linearizability: one epoch per service generation, with the
// crash-cut epoch's in-flight operations classified by recovery's verdicts
// (InFlightCommitted / InFlightNever for detectable drivers, plain InFlight
// otherwise) and the recovered state probed between the epochs.

import (
	"fmt"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/linearize"
	"prepuc/internal/metrics"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/openloop"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

// ServeDriver and RecoverInfo are the construction descriptor of
// internal/uc under the names this package exported before the descriptor
// moved there. The aliases are a compatibility shim for the frozen
// benchmark/, which decorates drivers from outside under these names; new
// code should spell uc.Driver.
type (
	ServeDriver = uc.Driver
	RecoverInfo = uc.RecoverInfo
)

// ServeConfig parameterizes one service run.
type ServeConfig struct {
	// Shards is the number of submission rings / consumer threads (also the
	// engine's worker count).
	Shards int
	// RingSize is the per-shard ring capacity (power of two).
	RingSize uint64
	// MaxBatch caps one drain's batch.
	MaxBatch int
	// Batched selects the batched submission path where the engine supports
	// it; false forces the per-op baseline.
	Batched bool
	// Open is the arrival schedule.
	Open openloop.Config
	// CrashAtNS, when nonzero, freezes the machine at that virtual instant
	// and runs the crash-and-recover-under-load scenario. It must lie inside
	// the load's lifetime (before the last completion drains): an instant
	// that misses the load is an error, not a crash of the idle machine.
	CrashAtNS uint64
	// Seed seeds the substrate RNG (+7: background write-backs, the fate of
	// unfenced lines) and the fault policy (+11). The arrival schedule has
	// its own, Open.Seed; the schedulers draw nothing.
	Seed int64
	// Policy is the crash-time fault-adversary spec (internal/fault syntax:
	// "", "persistall", "dropall", "coinflip[=p]", "targeted[=n]"). It
	// decides the fate of flushed-but-unfenced lines at the crash cut.
	Policy string
	// Check verifies the run against the set's sequential specification
	// (the serve workload is always the hashmap): per-service-generation
	// linearize epochs with probed boundary states, in-flight operations
	// classified by the driver's recovery verdicts. The result lands in
	// ServeResult.Check; probing perturbs virtual timings, so checked and
	// unchecked runs are not figure-comparable.
	Check bool
}

// LatencyNS summarizes a latency histogram in virtual nanoseconds.
type LatencyNS struct {
	P50  uint64  `json:"p50"`
	P99  uint64  `json:"p99"`
	P999 uint64  `json:"p999"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
}

// RingStats reports the submission-ring counters of the run (both phases).
type RingStats struct {
	Submits    uint64  `json:"submits"`
	FullStalls uint64  `json:"full_stalls"`
	Batches    uint64  `json:"batches"`
	BatchedOps uint64  `json:"batched_ops"`
	MeanBatch  float64 `json:"mean_batch"`
}

// CrashStats reports the crash scenario's recovery economics.
type CrashStats struct {
	// CrashAtNS is the crash instant; RecoveryVirtualNS the construction's
	// recovery procedure time; Replayed its replayed log entries.
	CrashAtNS         uint64 `json:"crash_at_ns"`
	RecoveryVirtualNS uint64 `json:"recovery_virtual_ns"`
	Replayed          uint64 `json:"replayed"`
	// StallNS is the client-visible outage: first post-crash completion
	// minus the crash instant.
	StallNS uint64 `json:"stall_ns"`
	// LostInflight counts operations submitted but not completed at the cut.
	LostInflight uint64 `json:"lost_inflight"`
	// BacklogAtResume counts arrivals that piled up before service resumed;
	// BacklogDrainNS is how long past resume the last of them completed.
	BacklogAtResume uint64 `json:"backlog_at_resume"`
	BacklogDrainNS  uint64 `json:"backlog_drain_ns"`
	// Detectable reports whether the driver resolved its in-flight window
	// through operation descriptors. When true, InFlightResolved counts
	// in-flight operations recovery answered definitely — committed or
	// never-applied; for a detectable driver that is the whole window.
	// ResolvedCompleted counts the committed ones, whose recorded results
	// were delivered at resume without resubmission (each is a completion
	// and a dedup hit).
	Detectable        bool   `json:"detectable"`
	InFlightResolved  uint64 `json:"in_flight_resolved"`
	ResolvedCompleted uint64 `json:"resolved_completed"`
	// DuplicatesApplied measures, over the operations the resume actually
	// resubmitted, how many recovery had proved committed — each would be a
	// double apply. Exactly-once resume keeps this at zero; the field is
	// omitted (nil) for non-detectable drivers, whose blind retry has no
	// verdicts to count against.
	DuplicatesApplied *uint64 `json:"duplicates_applied,omitempty"`
}

// CheckStats is the linearize verdict of a checked run.
type CheckStats struct {
	Mode string `json:"mode"`
	OK   bool   `json:"ok"`
	// Epochs is the number of linearize epochs checked (one per service
	// generation); Ops the total recorded operations across them; Lost the
	// completed operations the buffered allowance had to absorb.
	Epochs int `json:"epochs"`
	Ops    int `json:"ops"`
	Lost   int `json:"lost"`
	// InFlightCommitted / InFlightNever count the crash-cut operations
	// checked under each resolved classification.
	InFlightCommitted uint64 `json:"in_flight_committed"`
	InFlightNever     uint64 `json:"in_flight_never"`
	FailedEpoch       int    `json:"failed_epoch"`
	FailedPartition   string `json:"failed_partition,omitempty"`
	Reason            string `json:"reason,omitempty"`
}

// ServeResult is one system's record in the prepuc-serve document. Metrics
// is the machine's whole counter set at the end of the run (boot, both
// service generations and recovery included) — on an aggregate record the
// Add-fold of its machines'. The sharded fields are set only on aggregate
// records produced by RunShardedServe; single-machine records (and each
// entry under Shards) leave them empty.
type ServeResult struct {
	System    string           `json:"system"`
	Submitted uint64           `json:"submitted"`
	Completed uint64           `json:"completed"`
	OpsPerSec float64          `json:"ops_per_sec"`
	Latency   LatencyNS        `json:"latency_ns"`
	Ring      RingStats        `json:"ring"`
	Metrics   metrics.Snapshot `json:"metrics"`
	Crash     *CrashStats      `json:"crash,omitempty"`
	Check     *CheckStats      `json:"check,omitempty"`
	// Route is the key-partitioning policy of a sharded run. Imbalance is
	// the hottest machine's completed share relative to a perfectly even
	// split (1.0 = balanced; Zipf-skewed range partitions run hot).
	Route     string  `json:"route,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Shards holds the per-machine breakdowns; Composition the cross-shard
	// composition verdict of a checked sharded run.
	Shards      []*ShardServeResult `json:"shards,omitempty"`
	Composition *CompositionStats   `json:"composition,omitempty"`
}

// serveTopo sizes the machine: consumers occupy worker slots, so the
// topology must cover Shards tids across two nodes (minimum 2 per node so
// auxiliary threads have somewhere to live).
func serveTopo(shards int) numa.Topology {
	per := (shards + 1) / 2
	if per < 2 {
		per = 2
	}
	return numa.Topology{Nodes: 2, ThreadsPerNode: per}
}

// tally accumulates completions host-side through the service's OnComplete
// hook. Everything here is measurement state: recording costs no virtual
// time.
type tally struct {
	hist  openloop.Histogram
	endNS uint64 // latest completion instant (run length for throughput)

	// Crash-scenario fields, active during phase B only.
	phaseB     bool
	resumeNS   uint64
	firstB     uint64 // first post-crash completion instant (0 = none yet)
	backlogMax uint64 // latest completion of a pre-resume arrival

	// Completion records per shard, kept only when the linearize check is
	// on (nil otherwise). Per-shard completion order equals submission
	// order equals arrival order, so index k zips with the k-th operation
	// of the shard's (phase-specific) arrival slice.
	recA, recB [][]compRec
}

// compRec is one completion's check-relevant fields. exec is the drain
// instant: the linearize check uses [exec, done] as the operation's window —
// sound (execution starts after the drain) and far tighter than the arrival
// window, which under backlog would make thousands of operations look
// mutually concurrent and blow up the search.
type compRec struct{ result, exec, done uint64 }

func (ta *tally) onComplete(shard int, f *svc.Future) {
	ta.hist.Record(f.DoneNS - f.ArrivalNS)
	if f.DoneNS > ta.endNS {
		ta.endNS = f.DoneNS
	}
	rec := ta.recA
	if ta.phaseB {
		if ta.firstB == 0 {
			ta.firstB = f.DoneNS
		}
		if f.ArrivalNS < ta.resumeNS && f.DoneNS > ta.backlogMax {
			ta.backlogMax = f.DoneNS
		}
		rec = ta.recB
	}
	if rec != nil {
		rec[shard] = append(rec[shard], compRec{f.Result, f.ExecNS, f.DoneNS})
	}
}

// resolvedDelivery accounts one descriptor-resolved in-flight operation
// whose pre-crash result is handed back at the resume instant: it completes
// (latency charged from arrival to resume) without ever being resubmitted.
func (ta *tally) resolvedDelivery(doneNS, arrivalNS uint64) {
	ta.hist.Record(doneNS - arrivalNS)
	if doneNS > ta.endNS {
		ta.endNS = doneNS
	}
	if ta.firstB == 0 {
		ta.firstB = doneNS
	}
	if arrivalNS < ta.resumeNS && doneNS > ta.backlogMax {
		ta.backlogMax = doneNS
	}
}

// injector releases one ring's arrivals into its client at their scheduled
// instants. A full ring never blocks the arrival timeline: rejected
// operations wait host-side in FIFO order (they already "arrived"; the
// injector keeps offering them ahead of newer arrivals) and are submitted
// with their original stamps, so ring backpressure shows up as latency. The
// backlog is fed in schedule order and drained from its front, so it is
// always the contiguous run arrivals[lo:rel] — two cursors, no queue.
//
// The injector is a sim.Poller: its thread runs it under Thread.Await, so the
// arrival sleeps, the submissions' accesses (svc.Submission's segments) and
// the retries against a full ring all run wherever the baton is, and the
// thread is switched in only to start and to finish. In plain code it reads
//
//	for i := range arrivals {
//		if at := arrivals[i].At; at > t.Clock() { t.Step(at - t.Clock()) }
//		offer(i + 1) // the backlog first, then — only if it emptied — arrival i
//	}
//	for lo < len(arrivals) {
//		offer(len(arrivals))
//		if lo < len(arrivals) { t.Step(serveRetryNS) }
//	}
//
// where offer(hi) submits arrivals[lo:hi] in order until the ring rejects one.
type injector struct {
	c        *svc.Client
	arrivals []openloop.Arrival
	lo       int // first arrival the ring has not accepted yet
	rel      int // arrivals released so far
	sub      svc.Submission
	offering bool // sub has segments left
	backoff  bool // the last offer round after the final release left a backlog
}

// Poll runs the injector's next segment (sim.Poller).
func (in *injector) Poll(t *sim.Thread) (uint64, bool) {
	for {
		if in.offering {
			c, done := in.sub.Poll(t)
			if !done {
				return c, false
			}
			in.offering = false
			if in.sub.Accepted() {
				in.lo++
				if in.lo < in.rel {
					in.offer()
					continue
				}
			}
		}
		// Between offer rounds.
		switch n := len(in.arrivals); {
		case in.rel < n:
			if at := in.arrivals[in.rel].At; at > t.Clock() {
				return at - t.Clock(), false
			}
			in.rel++
		case in.lo == n:
			return 0, true
		case in.backoff:
			in.backoff = false
			return serveRetryNS, false
		default:
			in.backoff = true
		}
		in.offer()
	}
}

// offer arms the submission of the oldest arrival the ring has not accepted.
func (in *injector) offer() {
	a := &in.arrivals[in.lo]
	in.sub = in.c.Submission(a.Op, a.At)
	in.offering = true
}

// serveRetryNS is the injector's poll interval while draining its backlog
// against a full ring.
const serveRetryNS = 512

// RunServe executes one open-loop service run — steady-state, or
// crash-and-recover-under-load when cfg.CrashAtNS is set — and returns the
// measured record.
func RunServe(d *ServeDriver, cfg ServeConfig) (*ServeResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("serve: Shards must be positive, got %d", cfg.Shards)
	}
	if err := checkBatch(cfg.Batched, cfg.MaxBatch); err != nil {
		return nil, err
	}
	arrivals, err := openloop.Generate(cfg.Open)
	if err != nil {
		return nil, err
	}
	perShard := openloop.Split(arrivals, cfg.Shards, func(a *openloop.Arrival) int {
		return ringOf(a, cfg.Shards)
	})
	res, _, err := runServeArrivals(d, cfg, perShard)
	return res, err
}

// checkBatch rejects a drain cap the batched path cannot run: a consumer
// hands its whole drain to the engine's ExecuteBatch, which takes at most
// core.MaxBatch operations (one descriptor slot each) and panics past it. A
// cap below one is rejected on either path: the crash check's loss allowance
// is computed from it.
func checkBatch(batched bool, maxBatch int) error {
	if maxBatch < 1 || batched && maxBatch > core.MaxBatch {
		return fmt.Errorf("serve: MaxBatch %d: a combiner handoff takes 1 to %d operations", maxBatch, core.MaxBatch)
	}
	return nil
}

// ringOf shards a machine's schedule across its rings by client.
func ringOf(a *openloop.Arrival, shards int) int { return int(a.Client) % shards }

// serveRun exposes one machine's post-run internals to the sharded harness:
// the probed final state (Check runs only), the measurement tally for
// histogram/endpoint merging, and the ring-partitioned arrival schedule for
// zipping completion records back to operations.
type serveRun struct {
	final    map[uint64]uint64
	ta       *tally
	perShard [][]openloop.Arrival
}

// runServeArrivals is RunServe on a pre-generated arrival schedule already
// split across the machine's rings (perShard[s] is ring s's time-sorted
// share): the sharded harness splits one global schedule by machine and
// ring and runs each machine through here.
func runServeArrivals(d *ServeDriver, cfg ServeConfig, perShard [][]openloop.Arrival) (*ServeResult, *serveRun, error) {
	scheduled := scheduledOn(perShard)
	if scheduled == 0 {
		return nil, nil, fmt.Errorf("serve: empty arrival schedule")
	}
	if cfg.CrashAtNS > 0 && d.Recover == nil {
		return nil, nil, fmt.Errorf("serve: %s has no recovery path; steady scenario only", d.Name)
	}
	tp := serveTopo(cfg.Shards)
	ta := &tally{}
	if cfg.Check {
		ta.recA = make([][]compRec, cfg.Shards)
		ta.recB = make([][]compRec, cfg.Shards)
	}
	pol, err := fault.Parse(cfg.Policy, uint64(cfg.Seed)+11)
	if err != nil {
		return nil, nil, err
	}

	// Boot: construction plus generation-0 service rings.
	var s *svc.Service
	sys, engA, err := drivers.Boot(d, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: uint64(cfg.Seed) + 7,
	}, func(t *sim.Thread, sys *nvm.System, eng uc.UC) (err error) {
		s, err = svc.New(t, sys, svc.Config{
			Engine: eng, Topology: tp, Shards: cfg.Shards,
			RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch,
			NamePrefix: "svc0", Batched: cfg.Batched,
			OnComplete: ta.onComplete,
			Detect:     d.Detect, InvidEpoch: 0,
		})
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: boot %s: %w", d.Name, err)
	}
	if pol != nil {
		sys.SetFaultPolicy(pol)
	}

	// Phase A: open-loop load, optionally cut short by the crash.
	sch := sim.New(0)
	sys.SetScheduler(sch)
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	spawnServicePhase(sch, tp, s, d, cfg, perShard, 0)
	if cfg.CrashAtNS > 0 {
		sch.CrashAtInstant(cfg.CrashAtNS, func() bool {
			// Crash only a machine still under load: with every scheduled
			// arrival completed the run ends unfrozen, which is the error below.
			done := uint64(0)
			for shard := 0; shard < cfg.Shards; shard++ {
				done += s.Client(shard).Completed()
			}
			return done < uint64(scheduled)
		})
	}
	sch.Run()

	// probe reads a machine's state for the linearize check.
	probe := func(sys *nvm.System, eng uc.UC) (map[uint64]uint64, error) {
		state, err := probeServeState(sys, eng, cfg.Open.Keys)
		if err != nil {
			err = fmt.Errorf("serve: probe %s: %w", d.Name, err)
		}
		return state, err
	}
	res := &ServeResult{System: d.Name}
	run := &serveRun{ta: ta, perShard: perShard}
	if cfg.CrashAtNS == 0 || !sch.Frozen() {
		if cfg.CrashAtNS > 0 {
			return nil, nil, fmt.Errorf("serve: %s: crash at %d ns never fired (load drained first)", d.Name, cfg.CrashAtNS)
		}
		finish(res, cfg.Shards, s, nil, sys, ta, 0)
		if cfg.Check {
			if run.final, err = probe(sys, engA); err != nil {
				return nil, nil, err
			}
			res.Check = steadyCheck(perShard, ta, run.final)
		}
		return res, run, nil
	}

	// Crash cut: read the generation-0 tallies. Completion order equals
	// submission order per shard, so each shard's completed count is the
	// resume index into its arrival list; everything submitted beyond it was
	// in flight at the cut.
	crash := &CrashStats{CrashAtNS: cfg.CrashAtNS, Detectable: d.Detect}
	resume := make([]int, cfg.Shards)
	submitted := make([]int, cfg.Shards)
	drained := make([]int, cfg.Shards)
	for shard := 0; shard < cfg.Shards; shard++ {
		c := s.Client(shard)
		crash.LostInflight += c.Submitted() - c.Completed()
		resume[shard] = int(c.Completed())
		submitted[shard] = int(c.Submitted())
		drained[shard] = int(c.Drained())
	}

	// Recover the construction and rebuild the service (the rings are
	// volatile; generation 1 needs fresh memory names).
	var s2 *svc.Service
	var resumeDelta uint64
	rec, err := drivers.Recover(d, sys, nil, func(t *sim.Thread, cur *nvm.System, eng uc.UC) (err error) {
		s2, err = svc.New(t, cur, svc.Config{
			Engine: eng, Topology: tp, Shards: cfg.Shards,
			RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch,
			NamePrefix: "svc1", Batched: cfg.Batched,
			OnComplete: ta.onComplete,
			Detect:     d.Detect, InvidEpoch: 1,
		})
		resumeDelta = t.Clock()
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: recover %s: %w", d.Name, err)
	}
	cur, engB, info := rec.Sys, rec.Eng, rec.Info
	crash.Replayed, crash.RecoveryVirtualNS = info.Replayed, rec.VirtualNS
	resumeNS := cfg.CrashAtNS + resumeDelta
	ta.phaseB, ta.resumeNS = true, resumeNS

	// Resume plan: for a detectable driver the in-flight window splits by
	// recovery's verdicts — resolved-committed operations complete right
	// here with their recorded results (exactly-once), everything else is
	// resubmitted; a non-detectable driver resubmits the whole window.
	// resubSeq keeps each resubmitted window operation's original submission
	// sequence number so the duplicate audit below can re-check the final
	// plan against the verdict map independently of how it was built.
	phaseB := make([][]openloop.Arrival, cfg.Shards)
	resubSeq := make([][]int, cfg.Shards)
	for shard := 0; shard < cfg.Shards; shard++ {
		all := perShard[shard]
		win := all[resume[shard]:submitted[shard]]
		if !d.Detect {
			phaseB[shard] = all[resume[shard]:]
			continue
		}
		crash.InFlightResolved += uint64(len(win))
		for k, a := range win {
			seq := resume[shard] + k
			if _, committed := info.Resolved[svc.InvocationID(0, shard, uint64(seq))]; committed {
				crash.ResolvedCompleted++
				ta.resolvedDelivery(resumeNS, a.At)
				continue
			}
			resubSeq[shard] = append(resubSeq[shard], seq)
		}
		phaseB[shard] = resumePlan(all, resume[shard], submitted[shard], resubSeq[shard])
	}
	if d.Detect {
		dup := duplicatesIn(resubSeq, info.Resolved)
		crash.DuplicatesApplied = &dup
		cur.Metrics().DedupHits += crash.ResolvedCompleted
	}
	for shard := 0; shard < cfg.Shards; shard++ {
		for _, a := range phaseB[shard] {
			if a.At < resumeNS {
				crash.BacklogAtResume++
			}
		}
	}

	// The linearize check needs the recovered state before phase B mutates
	// it: probe it key by key on a throwaway timeline.
	var recState map[uint64]uint64
	if cfg.Check {
		if recState, err = probe(cur, engB); err != nil {
			return nil, nil, err
		}
	}

	// Phase B: resume the load on the recovered machine. Every thread starts
	// at the resume instant; backlog arrivals submit immediately with their
	// original stamps, so their latencies absorb the outage.
	schB := sim.New(0)
	cur.SetScheduler(schB)
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	spawnServicePhase(schB, tp, s2, d, cfg, phaseB, resumeNS)
	schB.Run()
	if schB.Frozen() {
		return nil, nil, fmt.Errorf("serve: %s: phase B froze unexpectedly", d.Name)
	}

	if ta.firstB > cfg.CrashAtNS {
		crash.StallNS = ta.firstB - cfg.CrashAtNS
	}
	if ta.backlogMax > resumeNS {
		crash.BacklogDrainNS = ta.backlogMax - resumeNS
	}
	finish(res, cfg.Shards, s, s2, cur, ta, crash.ResolvedCompleted)
	res.Crash = crash
	if cfg.Check {
		if run.final, err = probe(cur, engB); err != nil {
			return nil, nil, err
		}
		res.Check = crashCheck(d, cfg, perShard, phaseB, resume, submitted, drained, info, recState, run.final, ta)
	}
	return res, run, nil
}

// duplicatesIn audits a resume plan: of the window operations it resubmits
// (per ring, by original sequence number), how many recovery proved committed
// — each would be a double apply. It re-derives the verdict per planned
// entry, so a dedup regression shows up as a nonzero count, which fails a
// prepserve run.
func duplicatesIn(resubSeq [][]int, resolved map[uint64]uint64) (dup uint64) {
	for shard, seqs := range resubSeq {
		for _, seq := range seqs {
			if _, committed := resolved[svc.InvocationID(0, shard, uint64(seq))]; committed {
				dup++
			}
		}
	}
	return dup
}

// resumePlan is one ring's phase-B schedule: the in-flight window
// all[resume:submitted] cut down to the operations to resubmit (resub, their
// ascending sequence numbers), then everything not yet submitted. With the
// whole window resubmitted that is the rest of the schedule as it stands,
// which is shared, not copied.
func resumePlan(all []openloop.Arrival, resume, submitted int, resub []int) []openloop.Arrival {
	if len(resub) == submitted-resume {
		return all[resume:]
	}
	plan := make([]openloop.Arrival, 0, len(resub)+len(all)-submitted)
	for _, seq := range resub {
		plan = append(plan, all[seq])
	}
	return append(plan, all[submitted:]...)
}

// spawnServicePhase spawns one phase's consumers and injectors: consumer
// shard runs as worker tid shard on its home node; the last finishing
// injector stops the service, the last finishing consumer retires the
// auxiliary threads. It returns the threads, each shard's consumer and then
// its injector.
func spawnServicePhase(sch *sim.Scheduler, tp numa.Topology, s *svc.Service,
	d *ServeDriver, cfg ServeConfig, perShard [][]openloop.Arrival, startNS uint64) []*sim.Thread {
	consumersLive := cfg.Shards
	injectorsLive := cfg.Shards
	var ths []*sim.Thread
	for shard := 0; shard < cfg.Shards; shard++ {
		shard := shard
		ths = append(ths, sch.Spawn("serve", tp.NodeOf(shard), startNS, func(t *sim.Thread) {
			s.Serve(t, shard)
			consumersLive--
			if consumersLive == 0 && d.StopAux != nil {
				d.StopAux(t)
			}
		}), sch.Spawn("inject", tp.NodeOf(shard), startNS, func(t *sim.Thread) {
			t.Await(&injector{c: s.Client(shard), arrivals: perShard[shard]})
			injectorsLive--
			if injectorsLive == 0 {
				s.Stop()
			}
		}))
	}
	return ths
}

// scheduledOn counts the arrivals of a ring-split schedule.
func scheduledOn(perShard [][]openloop.Arrival) int {
	n := 0
	for _, arr := range perShard {
		n += len(arr)
	}
	return n
}

// finish fills the submission/completion counts and the summary blocks from
// the run's tallies. s2 is the post-crash service generation (nil on steady runs);
// resolved counts descriptor-resolved deliveries, completions that passed
// through neither generation's ring.
func finish(res *ServeResult, shards int, s, s2 *svc.Service, sys *nvm.System, ta *tally, resolved uint64) {
	for shard := 0; shard < shards; shard++ {
		c := s.Client(shard)
		res.Submitted += c.Submitted()
		res.Completed += c.Completed()
		if s2 != nil {
			c2 := s2.Client(shard)
			res.Submitted += c2.Submitted()
			res.Completed += c2.Completed()
		}
	}
	res.Completed += resolved
	res.summarize(&ta.hist, ta.endNS, sys.Metrics().Snapshot())
}

// summarize fills the throughput, latency, ring and metrics blocks of a record
// whose completions are counted: hist holds their latencies, endNS is the
// last completion instant (the run length) and ms the counters of the machine
// — or, for a sharded aggregate, the machines' sum.
func (res *ServeResult) summarize(hist *openloop.Histogram, endNS uint64, ms metrics.Snapshot) {
	if endNS > 0 {
		res.OpsPerSec = float64(res.Completed) * 1e9 / float64(endNS)
	}
	res.Latency = LatencyNS{
		P50:  hist.Quantile(0.50),
		P99:  hist.Quantile(0.99),
		P999: hist.Quantile(0.999),
		Max:  hist.Max(),
		Mean: hist.Mean(),
	}
	res.Metrics = ms
	res.Ring = RingStats{
		Submits:    ms.RingSubmits,
		FullStalls: ms.RingFullStalls,
		Batches:    ms.RingBatches,
		BatchedOps: ms.RingBatchedOps,
	}
	if ms.RingBatches > 0 {
		res.Ring.MeanBatch = float64(ms.RingBatchedOps) / float64(ms.RingBatches)
	}
}

// probeServeState reads the hashmap's live state through one Get per key on
// a throwaway timeline — the serve harness's recovered/final state
// observation for the linearize check. The error is a read walk's panic
// (drivers.Probe).
func probeServeState(sys *nvm.System, eng uc.UC, keys uint64) (map[uint64]uint64, error) {
	state := map[uint64]uint64{}
	err := drivers.Probe(sys, func(t *sim.Thread) {
		for k := uint64(0); k < keys; k++ {
			if v := eng.Execute(t, 0, uc.Get(k)); v != uc.NotFound {
				state[k] = v
			}
		}
	})
	return state, err
}

// serveOptions is the crash-cut epoch's correctness condition: buffered
// durable with the driver's loss allowance, or strict durable. The bound is
// ε plus one full batch per consumer minus one — each of the Shards
// consumers can hold one combiner session of up to MaxBatch completed
// operations past the last checkpoint.
func serveOptions(d *ServeDriver, cfg ServeConfig) linearize.Options {
	return linearize.Options{Buffered: d.Buffered, Allowance: d.LossBound(cfg.Shards * cfg.MaxBatch)}
}

// completedOps zips one shard's completion records with its arrival slice:
// per-shard completion order equals arrival order, so record k's operation
// is arr[k]. The window is [drain, done], not [arrival, done]: execution
// cannot start before the consumer drains the batch, so the tighter stamp is
// sound, and it keeps the check's concurrency at the real consumer count
// instead of the queue depth.
func completedOps(shard int, arr []openloop.Arrival, recs []compRec) []linearize.Op {
	ops := make([]linearize.Op, 0, len(recs))
	for k, r := range recs {
		a := arr[k]
		ops = append(ops, linearize.Op{
			Client: shard, Code: a.Op.Code, A0: a.Op.A0, A1: a.Op.A1,
			Result: r.result, Invoke: r.exec, Return: r.done,
			Class: linearize.Completed,
		})
	}
	return ops
}

// applyCheck folds one epoch's linearize result into the run's verdict.
func applyCheck(cb *CheckStats, epoch int, r linearize.Result) {
	cb.Ops += r.Ops
	cb.Lost += r.Lost
	if cb.OK && !r.OK {
		cb.OK = false
		cb.FailedEpoch = epoch
		cb.FailedPartition = r.FailedPartition
		cb.Reason = r.Reason
	}
}

// steadyCheck verifies a crash-free run: one epoch of completed operations
// against the engine's final probed state. The live probe sees every
// completed effect, so the condition is strict even for buffered drivers.
func steadyCheck(perShard [][]openloop.Arrival, ta *tally, final map[uint64]uint64) *CheckStats {
	cb := &CheckStats{Mode: "linearize", OK: true, Epochs: 1, FailedEpoch: -1}
	var ops []linearize.Op
	for shard := range perShard {
		ops = append(ops, completedOps(shard, perShard[shard], ta.recA[shard])...)
	}
	applyCheck(cb, 0, linearize.CheckEpoch(linearize.SetModel(), nil, ops, final, linearize.Options{}))
	return cb
}

// crashCheck verifies a crash run as two epochs. Epoch 0 is the pre-crash
// generation: its completed prefix plus the in-flight window, the latter
// classified by the driver's recovery verdicts — resolved-committed
// operations must linearize with the resolved result and cannot be lost,
// resolved-never-applied ones must not take effect — against the probed
// recovered state. A non-detectable driver's window splits on the drained
// cursor instead: operations the consumer never drained provably never
// reached the engine (InFlightNever for any driver), only the drained tail
// stays genuinely unknown (at-most-once InFlight). Epoch 1 is the resumed
// generation from that state to the final probe; a duplicate apply slipping
// through the resume plan shows up there as an inexplicable response or
// state.
func crashCheck(d *ServeDriver, cfg ServeConfig,
	perShard, phaseB [][]openloop.Arrival, resume, submitted, drained []int,
	info RecoverInfo, recState, final map[uint64]uint64, ta *tally) *CheckStats {
	cb := &CheckStats{Mode: "linearize", OK: true, Epochs: 2, FailedEpoch: -1}
	var epoch1 []linearize.Op
	for shard := range perShard {
		epoch1 = append(epoch1, completedOps(shard, perShard[shard], ta.recA[shard])...)
		for k, a := range perShard[shard][resume[shard]:submitted[shard]] {
			seq := resume[shard] + k
			op := linearize.Op{
				Client: shard, Code: a.Op.Code, A0: a.Op.A0, A1: a.Op.A1,
				Invoke: a.At, Return: ^uint64(0), Class: linearize.InFlight,
			}
			switch {
			case d.Detect:
				if r, ok := info.Resolved[svc.InvocationID(0, shard, uint64(seq))]; ok {
					op.Class, op.Result = linearize.InFlightCommitted, r
					cb.InFlightCommitted++
				} else {
					op.Class = linearize.InFlightNever
					cb.InFlightNever++
				}
			case seq >= drained[shard]:
				// Still queued in the (volatile) ring at the cut: the engine
				// never saw it, so its effect cannot be in the recovered state.
				op.Class = linearize.InFlightNever
			}
			epoch1 = append(epoch1, op)
		}
	}
	applyCheck(cb, 0, linearize.CheckEpoch(linearize.SetModel(), nil, epoch1, recState, serveOptions(d, cfg)))

	var epoch2 []linearize.Op
	for shard := range phaseB {
		epoch2 = append(epoch2, completedOps(shard, phaseB[shard], ta.recB[shard])...)
	}
	init2 := make(map[uint64]uint64, len(recState))
	for k, v := range recState {
		init2[k] = v
	}
	applyCheck(cb, 1, linearize.CheckEpoch(linearize.SetModel(), init2, epoch2, final, linearize.Options{}))
	return cb
}

// ServeSizing is the serve machine at the given shard count (= engine
// worker count): the crash scale crashtest runs, with a 4096-entry log and
// operation descriptors on, so the crash resume gets exactly-once semantics
// from recovery's resolved map wherever the construction records them.
func ServeSizing(shards int, epsilon uint64) uc.Sizing {
	sz := drivers.CrashScale(serveTopo(shards), shards, 4096, epsilon)
	sz.Detect = true
	return sz
}

// ServeDrivers builds the recoverable constructions' drivers — the
// single-machine crash matrix — in registry (= document) order. Every call
// builds fresh ones: driver closures hold per-machine engine state, so
// independent machines can never share a driver instance.
func ServeDrivers(shards int, epsilon uint64) []*ServeDriver {
	var out []*ServeDriver
	for _, e := range drivers.Recoverable() {
		out = append(out, e.New(ServeSizing(shards, epsilon)))
	}
	return out
}
