package harness

// serve.go runs one machine of the serve path: the asynchronous service
// front-end (internal/svc) driven with an open-loop arrival schedule
// (internal/openloop). Per-shard injector threads release operations at
// their pre-generated arrival instants into the submission rings, consumer
// threads drain them in batches, and every completion's latency
// (DoneNS − ArrivalNS) lands in a log-linear histogram — so a stalled server
// accumulates queueing delay against the percentiles instead of silently
// thinning the arrival stream (no coordinated omission). The entry point is
// RunShardedServe (shardserve.go), which runs one machine exactly like this
// and returns its record, and several behind a router.
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
// moved there. The aliases are kept, like RunServe and ServeDrivers, only
// because the frozen benchmark/ compiles against them; code here spells
// uc.Driver.
type (
	ServeDriver = uc.Driver
	RecoverInfo = uc.RecoverInfo
)

// ServeConfig parameterizes one machine's service run.
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
// Add-fold of its machines'. The sharded fields are set only on the
// aggregate record of a run of more than one machine; a machine's own
// record — the whole record of a one-machine run, and each entry under
// Shards — leaves them empty.
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

	// gen is the service generation completing now — once the run is over,
	// the last one. Generation 1 (after a crash) also tracks the outage and
	// the backlog drain.
	gen        int
	resumeNS   uint64
	firstB     uint64 // first post-crash completion instant (0 = none yet)
	backlogMax uint64 // latest completion of a pre-resume arrival

	// Completion records per generation and shard, kept only when the
	// linearize check is on (nil otherwise). Per-shard completion order
	// equals submission order equals arrival order, so index k zips with the
	// k-th operation of the shard's arrival slice in that generation.
	rec [2][][]compRec
}

// compRec is one completion's check-relevant fields. exec is the drain
// instant: the linearize check uses [exec, done] as the operation's window —
// sound (execution starts after the drain) and far tighter than the arrival
// window, which under backlog would make thousands of operations look
// mutually concurrent and blow up the search.
type compRec struct{ result, exec, done uint64 }

func (ta *tally) onComplete(shard int, f *svc.Future) {
	ta.complete(f.ArrivalNS, f.DoneNS)
	if rec := ta.rec[ta.gen]; rec != nil {
		rec[shard] = append(rec[shard], compRec{f.Result, f.ExecNS, f.DoneNS})
	}
}

// complete accounts one completion: a drained one, or a descriptor-resolved
// in-flight operation whose pre-crash result is handed back at the resume
// instant without ever being resubmitted.
func (ta *tally) complete(arrivalNS, doneNS uint64) {
	ta.hist.Record(doneNS - arrivalNS)
	if doneNS > ta.endNS {
		ta.endNS = doneNS
	}
	if ta.gen == 1 {
		if ta.firstB == 0 {
			ta.firstB = doneNS
		}
		if arrivalNS < ta.resumeNS && doneNS > ta.backlogMax {
			ta.backlogMax = doneNS
		}
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
	in.sub = in.c.Submission(a.Op(), a.At)
	in.offering = true
}

// serveRetryNS is the injector's poll interval while draining its backlog
// against a full ring.
const serveRetryNS = 512

// RunServe executes one open-loop service run on one machine — steady, or
// crash-and-recover-under-load when cfg.CrashAtNS is set — and returns the
// machine's record. It is RunShardedServe at one instance, the configuration
// prepserve runs at -instances 1, kept (like the ServeDriver and RecoverInfo
// aliases and ServeDrivers) only because the frozen benchmark/ compiles
// against it.
func RunServe(d *uc.Driver, cfg ServeConfig) (*ServeResult, error) {
	scfg := ShardedServeConfig{
		Instances: 1, Route: "hash", TotalWorkers: cfg.Shards,
		RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch, Batched: cfg.Batched,
		Open: cfg.Open, Seed: cfg.Seed, Policy: cfg.Policy, Check: cfg.Check,
		CrashAtNS: cfg.CrashAtNS,
	}
	if cfg.CrashAtNS > 0 {
		scfg.CrashShards = []int{0}
	}
	return RunShardedServe(func() *uc.Driver { return d }, scfg)
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

// runServeArrivals runs one machine on its share of the arrival schedule,
// already split across its rings (perShard[s] is ring s's time-sorted share).
//
// A service generation is one set of submission rings over the machine's
// engine and the load that runs through them: generation 0 on the booted
// machine and, after a crash, generation 1 on the recovered one. The rings
// are volatile, so every generation builds its own, under its own memory
// names and invocation-id epoch; both generations go through build and serve.
func runServeArrivals(d *uc.Driver, cfg ServeConfig, perShard [][]openloop.Arrival) (*ServeResult, *serveRun, error) {
	scheduled := scheduledOn(perShard)
	if scheduled == 0 {
		return nil, nil, fmt.Errorf("serve: empty arrival schedule")
	}
	if cfg.CrashAtNS > 0 && d.Recover == nil {
		return nil, nil, fmt.Errorf("serve: %s has no recovery path; steady scenario only", d.Name)
	}
	pol, err := fault.Parse(cfg.Policy, uint64(cfg.Seed)+11)
	if err != nil {
		return nil, nil, err
	}
	tp := serveTopo(cfg.Shards)
	ta := &tally{}
	if cfg.Check {
		ta.rec = [2][][]compRec{make([][]compRec, cfg.Shards), make([][]compRec, cfg.Shards)}
	}

	var gens [2]*svc.Service
	var builtNS uint64 // the building thread's clock once the latest rings stood
	build := func(gen int) func(*sim.Thread, *nvm.System, uc.UC) error {
		return func(t *sim.Thread, sys *nvm.System, eng uc.UC) (err error) {
			gens[gen], err = svc.New(t, sys, svc.Config{
				Engine: eng, Topology: tp, Shards: cfg.Shards,
				RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch,
				NamePrefix: fmt.Sprintf("svc%d", gen), Batched: cfg.Batched,
				OnComplete: ta.onComplete,
				Detect:     d.Detect, InvidEpoch: uint64(gen),
			})
			builtNS = t.Clock()
			return err
		}
	}
	// serve runs generation gen's load, plan, on sys from startNS and reports
	// whether the crash cut it short. Generation 0 arms the crash, which cuts
	// only a machine still under load: with every scheduled arrival completed
	// the run ends unfrozen.
	serve := func(gen int, sys *nvm.System, plan [][]openloop.Arrival, startNS uint64) (bool, error) {
		sch, err := drivers.Phase(sys, func(sch *sim.Scheduler) {
			spawnServicePhase(sch, tp, gens[gen], d, cfg, plan, startNS)
			if gen == 0 && cfg.CrashAtNS > 0 {
				sch.CrashAtInstant(cfg.CrashAtNS, func() bool {
					done := uint64(0)
					for shard := 0; shard < cfg.Shards; shard++ {
						done += gens[0].Client(shard).Completed()
					}
					return done < uint64(scheduled)
				})
			}
		})
		if err != nil {
			return false, fmt.Errorf("serve: %s: %w", d.Name, err)
		}
		return sch.Frozen(), nil
	}
	// probe reads a machine's hashmap state for the linearize check, one Get
	// per key on a throwaway timeline; the error is a read walk's panic.
	probe := func(sys *nvm.System, eng uc.UC) (map[uint64]uint64, error) {
		state := map[uint64]uint64{}
		if err := drivers.Probe(sys, func(t *sim.Thread) {
			for k := uint64(0); k < cfg.Open.Keys; k++ {
				if v := eng.Execute(t, 0, uc.Get(k)); v != uc.NotFound {
					state[k] = v
				}
			}
		}); err != nil {
			return nil, fmt.Errorf("serve: probe %s: %w", d.Name, err)
		}
		return state, nil
	}

	sys, eng, err := drivers.Boot(d, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: uint64(cfg.Seed) + 7,
	}, build(0))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: boot %s: %w", d.Name, err)
	}
	if pol != nil {
		sys.SetFaultPolicy(pol)
	}
	crashed, err := serve(0, sys, perShard, 0)
	if err != nil {
		return nil, nil, err
	}
	if cfg.CrashAtNS > 0 && !crashed {
		return nil, nil, fmt.Errorf("serve: %s: crash at %d ns never fired (load drained first)", d.Name, cfg.CrashAtNS)
	}
	res := &ServeResult{System: d.Name}
	// plan is the last generation's schedule, from the state its epoch starts
	// from (nil: empty).
	plan := perShard
	var from map[uint64]uint64
	if crashed {
		rec, err := drivers.Recover(d, sys, nil, build(1))
		if err != nil {
			return nil, nil, fmt.Errorf("serve: recover %s: %w", d.Name, err)
		}
		sys, eng = rec.Sys, rec.Eng
		resumeNS := cfg.CrashAtNS + builtNS
		ta.gen, ta.resumeNS = 1, resumeNS
		crash := &CrashStats{
			CrashAtNS: cfg.CrashAtNS, Detectable: d.Detect,
			Replayed: rec.Info.Replayed, RecoveryVirtualNS: rec.VirtualNS,
		}

		// Resume plan, ring by ring. Completion order equals submission order
		// per ring, so the ring's completed count at the cut is the resume
		// index into its arrival list, and everything submitted beyond it was
		// in flight. For a detectable driver that window splits by recovery's
		// verdicts: resolved-committed operations complete right here with
		// their recorded results (exactly-once), everything else is
		// resubmitted. A non-detectable driver resubmits the whole window.
		// resubSeq keeps each resubmitted window operation's original
		// submission sequence number so the duplicate audit below can
		// re-check the final plan against the verdict map independently of
		// how it was built.
		phaseB := make([][]openloop.Arrival, cfg.Shards)
		resubSeq := make([][]int, cfg.Shards)
		for shard := 0; shard < cfg.Shards; shard++ {
			c, all := gens[0].Client(shard), perShard[shard]
			resume, submitted := int(c.Completed()), int(c.Submitted())
			crash.LostInflight += uint64(submitted - resume)
			phaseB[shard] = all[resume:]
			if d.Detect {
				crash.InFlightResolved += uint64(submitted - resume)
				for seq := resume; seq < submitted; seq++ {
					if _, committed := rec.Info.Resolved[svc.InvocationID(0, shard, uint64(seq))]; committed {
						crash.ResolvedCompleted++
						ta.complete(all[seq].At, resumeNS)
						continue
					}
					resubSeq[shard] = append(resubSeq[shard], seq)
				}
				phaseB[shard] = resumePlan(all, resume, submitted, resubSeq[shard])
			}
			for _, a := range phaseB[shard] {
				if a.At < resumeNS {
					crash.BacklogAtResume++
				}
			}
		}
		if d.Detect {
			dup := duplicatesIn(resubSeq, rec.Info.Resolved)
			crash.DuplicatesApplied = &dup
			sys.Metrics().DedupHits += crash.ResolvedCompleted
		}

		// The crash epoch ends in the recovered state: probe it before
		// generation 1 mutates it.
		if cfg.Check {
			if from, err = probe(sys, eng); err != nil {
				return nil, nil, err
			}
			res.Check = &CheckStats{Mode: "linearize", OK: true, Epochs: 2, FailedEpoch: -1}
			crashEpoch(res.Check, d, cfg, perShard, gens[0], rec.Info, from, ta)
		}

		// Resume the load on the recovered machine. Every thread starts at
		// the resume instant; backlog arrivals submit immediately with their
		// original stamps, so their latencies absorb the outage.
		if _, err := serve(1, sys, phaseB, resumeNS); err != nil {
			return nil, nil, err
		}
		if ta.firstB > cfg.CrashAtNS {
			crash.StallNS = ta.firstB - cfg.CrashAtNS
		}
		if ta.backlogMax > resumeNS {
			crash.BacklogDrainNS = ta.backlogMax - resumeNS
		}
		res.Crash = crash
		res.Completed = crash.ResolvedCompleted // delivered through no ring
		plan = phaseB
	}

	for _, s := range gens[:ta.gen+1] {
		for shard := 0; shard < cfg.Shards; shard++ {
			res.Submitted += s.Client(shard).Submitted()
			res.Completed += s.Client(shard).Completed()
		}
	}
	res.summarize(&ta.hist, ta.endNS, sys.Metrics().Snapshot())
	run := &serveRun{ta: ta, perShard: perShard}
	if cfg.Check {
		// The last generation's epoch: its completed operations from where it
		// started to the final state. The live probe sees every completed
		// effect, so the condition is strict even for buffered drivers.
		if run.final, err = probe(sys, eng); err != nil {
			return nil, nil, err
		}
		if res.Check == nil {
			res.Check = &CheckStats{Mode: "linearize", OK: true, Epochs: 1, FailedEpoch: -1}
		}
		applyCheck(res.Check, ta.gen, linearize.CheckEpoch(linearize.SetModel(), from,
			completedEpoch(plan, ta.rec[ta.gen]), run.final, linearize.Options{}))
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

// spawnServicePhase spawns one phase's threads: d's auxiliary threads, then
// the consumers and injectors. Consumer shard runs as worker tid shard on its
// home node; the last finishing injector stops the service, the last
// finishing consumer retires the auxiliary threads. It returns the consumers
// and injectors, each shard's consumer and then its injector.
func spawnServicePhase(sch *sim.Scheduler, tp numa.Topology, s *svc.Service,
	d *uc.Driver, cfg ServeConfig, perShard [][]openloop.Arrival, startNS uint64) []*sim.Thread {
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	consumersLive := cfg.Shards
	injectorsLive := cfg.Shards
	var ths []*sim.Thread
	for shard := 0; shard < cfg.Shards; shard++ {
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

// serveOptions is the crash-cut epoch's correctness condition: buffered
// durable with the driver's loss allowance, or strict durable. The bound is
// ε plus one full batch per consumer minus one — each of the Shards
// consumers can hold one combiner session of up to MaxBatch completed
// operations past the last checkpoint.
func serveOptions(d *uc.Driver, cfg ServeConfig) linearize.Options {
	return linearize.Options{Buffered: d.Buffered, Allowance: d.LossBound(cfg.Shards * cfg.MaxBatch)}
}

// completedEpoch zips a generation's completion records with its plan, ring
// by ring: per-ring completion order equals arrival order, so ring s's record
// k is the operation plan[s][k], and ring s is client s. The window is
// [drain, done], not [arrival, done]: execution cannot start before the
// consumer drains the batch, so the tighter stamp is sound, and it keeps the
// check's concurrency at the real consumer count instead of the queue depth.
func completedEpoch(plan [][]openloop.Arrival, recs [][]compRec) []linearize.Op {
	var ops []linearize.Op
	for shard, arr := range plan {
		for k, r := range recs[shard] {
			a := arr[k]
			ops = append(ops, linearize.Op{
				Client: shard, Code: uint64(a.Code), A0: a.A0, A1: a.A1,
				Result: r.result, Invoke: r.exec, Return: r.done,
				Class: linearize.Completed,
			})
		}
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

// crashEpoch checks epoch 0 of a crash run, the pre-crash generation: its
// completed operations plus the in-flight window, the latter classified by
// the driver's recovery verdicts — resolved-committed operations must
// linearize with the resolved result and cannot be lost, resolved-never-
// applied ones must not take effect — against the probed recovered state. A
// non-detectable driver's window splits on the drained cursor instead:
// operations the consumer never drained provably never reached the engine
// (InFlightNever for any driver), only the drained tail stays genuinely
// unknown (at-most-once InFlight). Epoch 1, the resumed generation from that
// state to the final probe, is where a duplicate apply slipping through the
// resume plan shows up, as an inexplicable response or state.
func crashEpoch(cb *CheckStats, d *uc.Driver, cfg ServeConfig, perShard [][]openloop.Arrival,
	gen0 *svc.Service, info uc.RecoverInfo, recState map[uint64]uint64, ta *tally) {
	ops := completedEpoch(perShard, ta.rec[0])
	for shard, all := range perShard {
		c := gen0.Client(shard)
		drained := int(c.Drained())
		for seq := int(c.Completed()); seq < int(c.Submitted()); seq++ {
			a := all[seq]
			op := linearize.Op{
				Client: shard, Code: uint64(a.Code), A0: a.A0, A1: a.A1,
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
			case seq >= drained:
				// Still queued in the (volatile) ring at the cut: the engine
				// never saw it, so its effect cannot be in the recovered state.
				op.Class = linearize.InFlightNever
			}
			ops = append(ops, op)
		}
	}
	applyCheck(cb, 0, linearize.CheckEpoch(linearize.SetModel(), nil, ops, recState, serveOptions(d, cfg)))
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
// independent machines can never share a driver instance. prepserve builds
// its drivers from the registry; this list stays, like RunServe, for the
// frozen benchmark/.
func ServeDrivers(shards int, epsilon uint64) []*uc.Driver {
	var out []*uc.Driver
	for _, e := range drivers.Recoverable() {
		out = append(out, e.New(ServeSizing(shards, epsilon)))
	}
	return out
}
