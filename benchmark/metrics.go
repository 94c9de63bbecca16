package main

// metrics.go is the metric catalogue: the single list of every name the
// benchmark can print, with its unit, clock and direction. BENCHMARK.json
// mirrors it (bench_test.go holds the two together).

// Clocks. Virtual metrics are what the modelled machine would take and are a
// pure function of the seed; host metrics are what simulating it costs here;
// counts are event tallies of the simulated machine (deterministic too).
const (
	clockHost    = "host"
	clockVirtual = "virtual"
	clockCount   = "count"
)

type metricDef struct {
	Name, Unit, Clock string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline by which the metric may worsen
	// before -compare calls it a regression; 0 means reported only.
	Bound float64
	// Moves names the end-to-end metric (and workload) a per-layer metric is
	// expected to move; printed beside the value.
	Moves string
}

// endToEnd is what a user of the system sees. Every one is defined on every
// contract workload (see README.md for how closed loops get a latency).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: clockHost, Better: "lower", Bound: 0.25},
	{Name: "host_us_per_op", Unit: "us/op", Clock: clockHost, Better: "lower", Bound: 0.25},
	{Name: "host_alloc_kb_per_op", Unit: "KB/op", Clock: clockHost, Better: "lower", Bound: 0.05},
	{Name: "vtput_ops_per_s", Unit: "ops/s", Clock: clockVirtual, Better: "higher", Bound: 0.05},
	{Name: "vlat_mean_ns", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.25},
}

const (
	allWL       = "host_us_per_op on every workload"
	durableTP   = "vtput_ops_per_s on closed_update_durable"
	bufferedTP  = "vtput_ops_per_s on closed_update_buffered"
	updateTP    = "vtput_ops_per_s on closed_update_* and serve_overload"
	steadyLat   = "vlat_mean_ns on serve_steady"
	crashLat    = "vlat_mean_ns on serve_crash"
	exploreHost = "host_us_per_op on explore_small"
)

// perLayer is one layer's number each. A value of 0 on a workload means the
// layer is bypassed there (or the micro-driver is attached elsewhere).
var perLayer = []metricDef{
	// sim: the discrete-event scheduler.
	{Name: "sim.events_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: allWL},
	{Name: "sim.host_ns_per_event", Unit: "ns", Clock: clockHost, Better: "lower", Moves: allWL + ", largest share on closed_read"},
	{Name: "sim.step_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: allWL},
	// nvm: the simulated memory and its persistence instructions.
	{Name: "nvm.loads_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: allWL},
	{Name: "nvm.stores_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: allWL},
	{Name: "nvm.cas_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: allWL},
	{Name: "nvm.flushes_per_update", Unit: "1/upd", Clock: clockCount, Better: "lower", Moves: durableTP + "; none on closed_read"},
	{Name: "nvm.fences_per_update", Unit: "1/upd", Clock: clockCount, Better: "lower", Moves: durableTP + "; none on closed_read"},
	{Name: "nvm.flushes_elided_share", Unit: "ratio", Clock: clockCount, Better: "higher", Moves: durableTP},
	{Name: "nvm.wbinvd_per_kop", Unit: "1/kop", Clock: clockCount, Better: "lower", Moves: bufferedTP},
	{Name: "nvm.wbinvd_lines_mean", Unit: "lines", Clock: clockCount, Better: "lower", Moves: bufferedTP},
	{Name: "nvm.coherence_remote_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: updateTP},
	{Name: "nvm.access_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: allWL},
	{Name: "nvm.flush_fence_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on closed_update_durable"},
	{Name: "nvm.wbinvd_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on closed_update_buffered"},
	{Name: "nvm.clone_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: exploreHost + " and serve_crash"},
	{Name: "nvm.crash_recover_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: exploreHost + " and serve_crash"},
	{Name: "nvm.clones", Unit: "count", Clock: clockCount, Better: "lower", Moves: exploreHost},
	{Name: "nvm.pages_copied_per_kop", Unit: "1/kop", Clock: clockCount, Better: "lower", Moves: allWL + " (copy-on-write page privatisations)"},
	{Name: "nvm.lines_scanned_at_crash", Unit: "lines", Clock: clockCount, Better: "lower", Moves: "host_us_per_op on serve_crash"},
	// seq, pmem: the sequential object and its allocator.
	{Name: "seq.hashmap_op_vns", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: "vtput_ops_per_s on closed_read"},
	{Name: "seq.hashmap_op_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on closed_read"},
	{Name: "pmem.alloc_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on closed_update_*"},
	// oplog, locks: the shared log and the combiner lock.
	{Name: "oplog.cas_fail_share", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: updateTP},
	{Name: "oplog.log_wraps", Unit: "count", Clock: clockCount, Better: "lower", Moves: updateTP},
	{Name: "oplog.append_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on closed_update_* and serve_overload"},
	{Name: "locks.acquisitions_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: updateTP},
	{Name: "locks.handoff_share", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: updateTP},
	// core: the PREP engine.
	{Name: "core.mean_batch", Unit: "ops", Clock: clockCount, Better: "higher", Moves: updateTP},
	{Name: "core.update_vns_p50", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: "vtput_ops_per_s on closed_update_*"},
	{Name: "core.update_vns_p99", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.05, Moves: "vlat_mean_ns on closed_update_*"},
	{Name: "core.read_vns_p50", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: "vtput_ops_per_s on closed_read"},
	{Name: "core.read_vns_p99", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.05, Moves: "vlat_mean_ns on closed_read"},
	{Name: "core.batch_exec_vns_mean_per_op", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: steadyLat},
	{Name: "core.batch_exec_vns_p99", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: steadyLat},
	{Name: "core.flush_boundary_stall_share", Unit: "ratio", Clock: clockVirtual, Better: "lower", Moves: bufferedTP},
	{Name: "core.persist_cycles", Unit: "count", Clock: clockCount, Better: "lower", Moves: bufferedTP},
	{Name: "core.persist_cycle_vns_mean", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: bufferedTP},
	{Name: "core.descriptor_flushes_per_update", Unit: "1/upd", Clock: clockCount, Better: "lower", Moves: "vtput_ops_per_s on serve_overload"},
	{Name: "core.cross_node_helps_per_kop", Unit: "1/kop", Clock: clockCount, Better: "lower", Moves: updateTP},
	{Name: "core.recover_vns", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.02, Moves: crashLat},
	{Name: "core.recover_host_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on serve_crash"},
	{Name: "core.replayed", Unit: "entries", Clock: clockCount, Better: "lower", Moves: crashLat},
	{Name: "core.in_flight_resolved", Unit: "ops", Clock: clockCount, Better: "higher", Moves: crashLat},
	{Name: "core.boot_host_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "setup_s on every workload"},
	// svc: rings and batching in front of the engine.
	{Name: "svc.ring_wait_vns_mean", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: steadyLat},
	{Name: "svc.vlat_p50_ns", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.02, Moves: steadyLat},
	{Name: "svc.vlat_p99_ns", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.05, Moves: steadyLat},
	{Name: "svc.vlat_p999_ns", Unit: "ns", Clock: clockVirtual, Better: "lower", Moves: steadyLat},
	{Name: "svc.vlat_samples", Unit: "count", Clock: clockCount, Better: "higher", Moves: "sample count behind svc.vlat_*"},
	{Name: "svc.stall_vns", Unit: "ns", Clock: clockVirtual, Better: "lower", Bound: 0.02, Moves: crashLat},
	{Name: "svc.ring_submits_per_op", Unit: "1/op", Clock: clockCount, Better: "lower", Moves: "0 on closed_* and explore_small"},
	{Name: "svc.ring_mean_batch", Unit: "ops", Clock: clockCount, Better: "higher", Moves: "vtput_ops_per_s on serve_overload"},
	{Name: "svc.ring_full_stall_share", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: "vtput_ops_per_s on serve_overload"},
	{Name: "svc.submit_drain_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on serve_*"},
	// openloop: the arrival generator and its histogram.
	{Name: "openloop.generate_host_ns_per_arrival", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "setup_s on serve_* and sharded_steady"},
	{Name: "openloop.hist_record_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "host_us_per_op on serve_*"},
	// shard, par: the deployment layer.
	{Name: "shard.route_host_ns", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "setup_s on sharded_steady"},
	{Name: "shard.imbalance", Unit: "ratio", Clock: clockVirtual, Better: "lower", Moves: "vtput_ops_per_s on sharded_steady"},
	{Name: "shard.scaling_vs_s1", Unit: "x", Clock: clockVirtual, Better: "higher", Moves: "vtput_ops_per_s on sharded_steady"},
	{Name: "par.speedup_j2", Unit: "x", Clock: clockHost, Better: "higher", Moves: "host_us_per_op on sharded_steady"},
	// fault: the crash-time adversary.
	{Name: "fault.crash_lines_dropped", Unit: "lines", Clock: clockCount, Better: "lower", Moves: crashLat},
	{Name: "fault.crash_lines_persisted", Unit: "lines", Clock: clockCount, Better: "lower", Moves: crashLat},
	// linearize, explore: the oracle and the model checker.
	{Name: "linearize.check_host_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: exploreHost},
	{Name: "linearize.ops_checked", Unit: "ops", Clock: clockCount, Better: "higher", Moves: exploreHost},
	{Name: "explore.schedules", Unit: "count", Clock: clockCount, Better: "higher", Moves: exploreHost},
	{Name: "explore.leaves", Unit: "count", Clock: clockCount, Better: "higher", Moves: exploreHost},
	{Name: "explore.dpor_pruned_share", Unit: "ratio", Clock: clockCount, Better: "higher", Moves: exploreHost},
	{Name: "explore.host_us_per_leaf", Unit: "us", Clock: clockHost, Better: "lower", Moves: exploreHost},
	// Reference curves: the other constructions on the closed_update
	// geometry. The cost model is unvalidated (no hardware numbers in the
	// repo), so these carry no error figure.
	{Name: "cxpuc.vtput_ops_per_s", Unit: "ops/s", Clock: clockVirtual, Better: "higher", Moves: "reference for closed_update_*"},
	{Name: "soft.vtput_ops_per_s", Unit: "ops/s", Clock: clockVirtual, Better: "higher", Moves: "reference for closed_update_*"},
	{Name: "onll.vtput_ops_per_s", Unit: "ops/s", Clock: clockVirtual, Better: "higher", Moves: "reference for closed_update_*"},
	{Name: "gluc.vtput_ops_per_s", Unit: "ops/s", Clock: clockVirtual, Better: "higher", Moves: "reference for closed_update_*"},
	{Name: "core.speedup_vs_cxpuc", Unit: "x", Clock: clockVirtual, Better: "higher", Moves: "vtput_ops_per_s on closed_update_*"},
	// harness: the benchmark's own accounting.
	{Name: "harness.wall_s", Unit: "s", Clock: clockHost, Better: "lower", Moves: "whole traced invocation"},
	{Name: "harness.reps", Unit: "count", Clock: clockHost, Better: "higher", Moves: "untraced repetitions behind the medians"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Clock: clockHost, Better: "lower", Moves: "host memory, too noisy to bound"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Clock: clockHost, Better: "lower", Moves: "traced vs untraced repetition wall"},
	{Name: "harness.unattributed_host_share", Unit: "ratio", Clock: clockHost, Better: "lower", Moves: "run wall not explained by count x unit cost"},
}

// values maps metric names to measurements.
type values map[string]float64

// ratio is num/den for counters; a zero denominator reports the numerator,
// so a bypassed layer reads 0 and a stray count still shows.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return float64(num)
	}
	return float64(num) / float64(den)
}
