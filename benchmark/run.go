package main

// run.go runs one workload: repetitions of the public entry point for the
// requested time (untraced for the end-to-end metrics; alternating with
// traced ones, then micro-drivers and extra runs, for the per-layer
// metrics), the bit-identity check on the virtual clock, the correctness
// gate, and the derivation of every metric by name.

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"prepuc/internal/sim"
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale and microMin are for the tests: 1 and 0 (an even share of the
	// traced pass's time) on the command line.
	scale    float64
	microMin time.Duration
	// traceDir receives trace-<workload>.json on a traced pass ("": nowhere).
	traceDir string
}

// extraSetups is how many set-up-only repetitions a closed workload adds to
// the untraced pass.
const extraSetups = 12

// outcome is one invocation's result.
type outcome struct {
	Correct           bool
	Attempted, Failed uint64
	Metrics           values
	Problems          []string

	virt   virtual
	tracer *tracer
}

func run(w *workload, o options) (*outcome, error) {
	tr := newTracer(w.name)
	var plain, traced []*rep
	var setups []float64 // set-up samples: untraced and set-up-only repetitions
	const (
		untraced  = "rep.untraced"
		withTrace = "rep.traced"
		setupOnly = "rep.setup"
	)
	one := func(kind string) error {
		c := ctx{seed: o.seed, scale: o.scale, setupOnly: kind == setupOnly}
		if kind == withTrace {
			c.tr = tr
		}
		c.span = tr.begin(kind, -1, 0)
		defer func() { tr.end(c.span, 0) }()
		// Every repetition starts from a collected heap, so one's garbage
		// is not the next one's GC bill.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := w.rep(c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		runtime.ReadMemStats(&m1)
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		switch kind {
		case withTrace:
			traced = append(traced, r)
		case untraced:
			plain = append(plain, r)
			fallthrough
		default:
			setups = append(setups, r.setupS)
		}
		return nil
	}

	// Repetitions: untraced only for the end-to-end pass; alternating
	// untraced/traced for half the time on the per-layer pass.
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		kind := untraced
		if o.trace && i%2 == 1 {
			kind = withTrace
		}
		if err := one(kind); err != nil {
			return nil, err
		}
		if time.Since(start).Seconds() >= budget && len(plain) > 0 && (!o.trace || len(traced) > 0) {
			break
		}
	}
	if w.closed && !o.trace {
		if err := one(withTrace); err != nil { // the only source of a closed loop's latency
			return nil, err
		}
		// A closed loop sets up in a few milliseconds, too little for four
		// samples to give a steady median; repetitions that stop after
		// set-up are cheap, so take more of them.
		for i := 0; i < extraSetups; i++ {
			if err := one(setupOnly); err != nil {
				return nil, err
			}
		}
	}

	out := &outcome{Metrics: values{}, virt: plain[0].virt, tracer: tr}
	for i, r := range append(append([]*rep(nil), plain...), traced...) {
		if r.virt != plain[0].virt {
			out.Problems = append(out.Problems, fmt.Sprintf(
				"virtual clock not reproducible: repetition %d (traced=%v) differs from repetition 0", i, r.traced))
		}
	}
	for _, r := range plain {
		out.Attempted += r.virt.Attempted
		out.Failed += r.virt.Attempted - r.virt.Ops
	}

	c := ctx{seed: o.seed, scale: o.scale}
	if o.trace {
		id := tr.begin("derive", -1, 0)
		layerValues(w, plain, traced[0], out.Metrics)
		tr.end(id, 0)
		if err := runMicro(w, c, o, tr, plain[0], out.Metrics); err != nil {
			return nil, err
		}
		if w.extras != nil {
			id := tr.begin("extras", -1, 0)
			err := w.extras(c, plain[0], out.Metrics)
			tr.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: extras: %w", w.name, err)
			}
		}
		unattributed(plain, out.Metrics)
	} else {
		var lat *rep
		if len(traced) > 0 {
			lat = traced[0]
		}
		endToEndValues(w, plain, setups, lat, out.Metrics)
	}

	id := tr.begin("gate", -1, 0)
	out.Problems = append(out.Problems, w.gate(c, plain[0])...)
	tr.end(id, 0)
	out.Correct = len(out.Problems) == 0
	if !out.Correct {
		out.Failed = out.Attempted // every op belongs to a run whose gate failed
	}

	if o.trace {
		out.Metrics["harness.reps"] = float64(len(plain))
		out.Metrics["harness.peak_rss_mb"] = peakRSSMB()
		out.Metrics["harness.wall_s"] = time.Since(tr.t0).Seconds()
		for _, d := range perLayer { // a bypassed layer reads 0
			if _, ok := out.Metrics[d.Name]; !ok {
				out.Metrics[d.Name] = 0
			}
		}
		if o.traceDir != "" {
			if err := tr.write(o.traceDir, o.seed); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runMicro runs the workload's micro-drivers for the second half of the
// traced pass's time, evenly shared.
func runMicro(w *workload, c ctx, o options, tr *tracer, base *rep, v values) error {
	m := microCtx{min: o.microMin, base: base, costs: sim.UnitCosts()}
	if m.min == 0 {
		m.min = time.Duration(o.seconds / 2 / float64(len(w.micro)) * float64(time.Second))
	}
	if w.closed {
		m.costs = sim.DefaultCosts()
	}
	if w.open != nil {
		m.open = w.open(c)
	}
	for _, name := range w.micro {
		id := tr.begin("micro."+name, -1, 0)
		err := microDrivers[name](m, v)
		tr.end(id, 0)
		if err != nil {
			return fmt.Errorf("%s: micro-driver %s: %w", w.name, name, err)
		}
	}
	return nil
}

func column(reps []*rep, f func(r *rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndValues derives the end-to-end metrics: host ones are medians over
// the untraced repetitions, virtual ones are the (reproducible) results.
// lat is the traced repetition of a closed workload, nil otherwise.
func endToEndValues(w *workload, plain []*rep, setups []float64, lat *rep, v values) {
	ops := float64(plain[0].virt.Ops)
	// Per op, not raw wall: closed workloads run a fixed virtual duration,
	// so a virtual-time gain completes more ops and must not read as a host
	// regression.
	v["host_us_per_op"] = median(column(plain, func(r *rep) float64 { return r.runS * 1e6 / ops }))
	v["host_alloc_kb_per_op"] = median(column(plain, func(r *rep) float64 { return float64(r.allocBytes) / 1000 / ops }))
	if !w.contract {
		return // explore_small: no set-up stamp, no virtual clock
	}
	v["setup_s"] = median(setups)
	v["vtput_ops_per_s"] = plain[0].virt.VTput
	v["vlat_mean_ns"] = plain[0].virt.Lat.Mean
	if lat != nil {
		v["vlat_mean_ns"] = float64(sum(lat.update)+sum(lat.read)) / float64(len(lat.update)+len(lat.read))
	}
}

// layerValues derives the per-layer metrics that come from the decorators
// and from counter deltas; micro-drivers and extras add theirs afterwards.
func layerValues(w *workload, plain []*rep, tr *rep, v values) {
	b := &plain[0].virt
	s := b.Snap
	ops := float64(b.Ops)
	runS := median(column(plain, func(r *rep) float64 { return r.runS }))

	v["sim.events_per_op"] = float64(b.Events) / ops
	if b.Events > 0 {
		v["sim.host_ns_per_event"] = runS * 1e9 / float64(b.Events)
	}
	v["nvm.loads_per_op"] = float64(s.Loads) / ops
	v["nvm.stores_per_op"] = float64(s.Stores) / ops
	v["nvm.cas_per_op"] = float64(s.CASes) / ops
	v["nvm.flushes_per_update"] = ratio(s.Flushes, s.Updates)
	v["nvm.fences_per_update"] = ratio(s.Fences, s.Updates)
	v["nvm.flushes_elided_share"] = ratio(s.FlushesElided, s.FlushElisionChecks)
	v["nvm.wbinvd_per_kop"] = 1000 * float64(s.WBINVDs) / ops
	v["nvm.wbinvd_lines_mean"] = ratio(s.WBINVDLines, s.WBINVDs)
	v["nvm.coherence_remote_per_op"] = float64(s.CoherenceRemote) / ops
	v["nvm.clones"] = float64(s.Clones)
	v["nvm.pages_copied_per_kop"] = 1000 * float64(s.PagesCopied) / ops
	v["nvm.lines_scanned_at_crash"] = float64(s.LinesScannedAtCrash)
	v["oplog.cas_fail_share"] = ratio(s.LogTailCASFailures, s.LogTailCASAttempts)
	v["oplog.log_wraps"] = float64(s.LogWraps)
	v["locks.acquisitions_per_op"] = float64(s.LockAcquisitions) / ops
	v["locks.handoff_share"] = ratio(s.LockHandoffs, s.LockAcquisitions)
	v["core.mean_batch"] = s.MeanBatchSize
	if b.ThreadNS > 0 {
		v["core.flush_boundary_stall_share"] = float64(s.FlushBoundaryStallNS) / float64(b.ThreadNS)
	}
	v["core.persist_cycles"] = float64(s.PersistCycles)
	v["core.persist_cycle_vns_mean"] = ratio(s.PersistCycleNS, s.PersistCycles)
	v["core.descriptor_flushes_per_update"] = ratio(s.DescriptorFlushes, s.Updates)
	v["core.cross_node_helps_per_kop"] = 1000 * float64(s.CrossNodeHelps) / ops
	v["core.boot_host_ms"] = 1000 * median(column(plain, func(r *rep) float64 { return r.bootS }))
	v["fault.crash_lines_dropped"] = float64(s.CrashLinesDropped)
	v["fault.crash_lines_persisted"] = float64(s.CrashLinesPersisted)

	// Engine wrappers (traced repetition).
	slices.Sort(tr.update)
	slices.Sort(tr.read)
	slices.Sort(tr.batch)
	v["core.update_vns_p50"] = float64(quantile(tr.update, 0.50))
	v["core.update_vns_p99"] = float64(quantile(tr.update, 0.99))
	v["core.read_vns_p50"] = float64(quantile(tr.read, 0.50))
	v["core.read_vns_p99"] = float64(quantile(tr.read, 0.99))
	if tr.batchOps > 0 {
		perOp := float64(tr.batchOpNS) / float64(tr.batchOps)
		v["core.batch_exec_vns_mean_per_op"] = perOp
		v["core.batch_exec_vns_p99"] = float64(quantile(tr.batch, 0.99))
		// An op's latency is its wait for the drain plus its batch's
		// execution, so the two means add to the end-to-end mean.
		v["svc.ring_wait_vns_mean"] = b.Lat.Mean - perOp
	}

	// Service front-end (zero on closed loops and the explorer).
	v["svc.vlat_p50_ns"] = float64(b.Lat.P50)
	v["svc.vlat_p99_ns"] = float64(b.Lat.P99)
	v["svc.vlat_p999_ns"] = float64(b.Lat.P999)
	if b.Ring.Submits > 0 {
		v["svc.vlat_samples"] = ops
	}
	v["svc.ring_submits_per_op"] = float64(s.RingSubmits) / ops
	v["svc.ring_mean_batch"] = ratio(s.RingBatchedOps, s.RingBatches)
	v["svc.ring_full_stall_share"] = ratio(s.RingFullStalls, s.RingFullStalls+s.RingSubmits)
	v["shard.imbalance"] = b.Imbalance

	// Crash and recovery.
	v["core.recover_vns"] = float64(b.RecoveryNS)
	v["core.recover_host_ms"] = 1000 * median(column(plain, func(r *rep) float64 { return r.recoverHostS }))
	v["core.replayed"] = float64(b.Replayed)
	v["core.in_flight_resolved"] = float64(b.InFlightResolved)
	v["svc.stall_vns"] = float64(b.StallNS)

	// Model checker.
	v["explore.schedules"] = float64(b.Schedules)
	v["explore.leaves"] = float64(b.Leaves)
	v["explore.dpor_pruned_share"] = ratio(b.DPORPruned, b.DPORPruned+b.DPORBranches)
	if b.Leaves > 0 {
		v["explore.host_us_per_leaf"] = runS * 1e6 / float64(b.Leaves)
	}

	// What the wrappers cost: traced vs untraced repetition wall.
	total := func(r *rep) float64 { return r.setupS + r.runS }
	v["harness.trace_overhead_share"] = total(tr)/median(column(plain, total)) - 1
}

// unattributed reports the share of the run wall that counts times unit
// costs do not explain: accesses at the access micro-driver's price, flushes
// and fences and WBINVDs at theirs where this workload measured them, every
// other simulator event at the bare dispatch price. Reported, not forced to
// zero.
func unattributed(plain []*rep, v values) {
	b := &plain[0].virt
	s := b.Snap
	step, access := v["sim.step_host_ns"], v["nvm.access_host_ns"]
	if step == 0 || access == 0 || b.Events == 0 {
		return
	}
	flushFence := v["nvm.flush_fence_host_ns"]
	if flushFence == 0 {
		flushFence = step
	}
	accesses := float64(s.Loads + s.Stores + s.CASes)
	persists := float64(s.Flushes + s.Fences)
	other := float64(b.Events) - accesses - persists
	if other < 0 {
		other = 0
	}
	explained := accesses*access + persists*flushFence + other*step +
		float64(s.WBINVDs)*v["nvm.wbinvd_host_us"]*1000
	runS := median(column(plain, func(r *rep) float64 { return r.runS }))
	v["harness.unattributed_host_share"] = 1 - explained/(runS*1e9)
}

// peakRSSMB is the process's peak resident set (Linux reports kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
