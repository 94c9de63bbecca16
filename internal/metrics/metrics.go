// Package metrics is the engine-wide observability layer: a flat set of
// event counters and virtual-time phase accumulators recorded inline by the
// instrumented packages (nvm, oplog, locks, core) and exposed as immutable
// snapshots through nvm.System.Metrics and every harness document.
//
// Counters are host-side Go integers, not simulated memory: incrementing one
// performs no sim.Thread.Step and therefore costs zero *virtual* time, so
// instrumentation can never perturb a measured figure — Volatile-mode
// throughput with the counters live is bit-identical to the uninstrumented
// engine. The simulator's cooperative scheduling (one runnable thread at a
// time) also means plain increments need no atomics.
//
// Phase timers follow the same rule: callers sample sim.Thread.Clock()
// around a waiting phase and add the delta to an accumulator, measuring
// virtual time without spending any.
package metrics

import "reflect"

// BatchHistBuckets is the number of power-of-two batch-size histogram
// buckets: bucket i counts combined batches of size [2^i, 2^(i+1)) with the
// last bucket open-ended.
const BatchHistBuckets = 8

// Counters is every raw, monotonically increasing event counter of one
// simulated machine. Each field is incremented at its single source of
// truth; see the package comments of nvm, oplog, locks and core for exactly
// where. JSON tags define the wire names every document's "metrics" block
// carries; every field has one (metrics_test.go enforces it).
type Counters struct {
	// Simulated-memory traffic (internal/nvm).
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
	CASes  uint64 `json:"cas_ops"`

	// Persistence-instruction traffic (internal/nvm). FlushAsync counts
	// CLWB/CLFLUSHOPT issues that actually reached the write-back path
	// (including the per-line charges of bulk region flushes), FlushSync
	// counts blocking CLFLUSHes, Fences counts SFENCEs.
	// FlushElisionChecks counts every flush request that consulted the
	// per-line dirty state (all of them, in elision mode); FlushesElided
	// counts the subset found clean (or already pending on the issuing
	// thread) whose write-back was skipped — the FliT-style saving. In the
	// reference no-elision mode both stay zero and every request lands in
	// FlushAsync/FlushSync.
	FlushAsync         uint64 `json:"flush_async"`
	FlushSync          uint64 `json:"flush_sync"`
	FlushElisionChecks uint64 `json:"flush_elision_checks"`
	FlushesElided      uint64 `json:"flushes_elided"`
	Fences             uint64 `json:"fences"`
	WBINVDs            uint64 `json:"wbinvd_count"`
	WBINVDLines        uint64 `json:"wbinvd_lines"`
	BGFlushes          uint64 `json:"bg_flushes"`
	LinesWrittenBack   uint64 `json:"lines_written_back"`

	// Coherence-cost events (internal/nvm): how often an access paid an
	// intra-node cache-to-cache transfer (or sharer invalidation) vs a
	// cross-socket transfer.
	CoherenceLocal  uint64 `json:"coherence_local"`
	CoherenceRemote uint64 `json:"coherence_remote"`

	// Crash-time fault injection (internal/nvm, internal/fault): the fate of
	// flushed-but-unfenced lines at each crash materialization, cumulative
	// across the machine's crash lineage (the registry survives Recover).
	CrashLinesPersisted uint64 `json:"crash_lines_persisted"`
	CrashLinesDropped   uint64 `json:"crash_lines_dropped"`

	// Snapshot machinery (internal/nvm): host-side substrate work rather than
	// simulated-hardware events. Clones counts System.Clone calls;
	// PagesCopied counts COW pages privatized on first write after a
	// Clone/Recover; LinesScannedAtCrash counts pending
	// (flushed-but-unfenced) lines examined by crash materializations — with
	// an empty pending set, Recover short-circuits and the counter shows
	// exactly zero scan work.
	Clones              uint64 `json:"clones"`
	PagesCopied         uint64 `json:"pages_copied"`
	LinesScannedAtCrash uint64 `json:"lines_scanned_at_crash"`

	// Recovery (internal/core and the other constructions' Recover paths).
	// RecoveryRestarts counts partially built generations a re-entrant
	// recovery had to skip over (one per crash that hit a recovery run);
	// ReplayHoles counts not-fully-persisted log entries skipped below a
	// persisted completedTail — always zero unless the flush protocol is
	// violated.
	RecoveryRestarts uint64 `json:"recovery_restarts"`
	ReplayHoles      uint64 `json:"replay_holes"`

	// Shared operation log (internal/oplog).
	LogTailCASAttempts uint64 `json:"logtail_cas_attempts"`
	LogTailCASFailures uint64 `json:"logtail_cas_failures"`
	LogWraps           uint64 `json:"log_wraps"`

	// Locks (internal/locks). A hand-off is a successful combiner-lock
	// acquisition by a different thread than the previous holder.
	LockAcquisitions uint64 `json:"lock_acquisitions"`
	LockHandoffs     uint64 `json:"lock_handoffs"`

	// Engine (internal/core).
	Updates              uint64                   `json:"updates"`
	Reads                uint64                   `json:"reads"`
	CombinerAcquisitions uint64                   `json:"combiner_acquisitions"`
	CombinedOps          uint64                   `json:"combined_ops"`
	BatchHist            [BatchHistBuckets]uint64 `json:"batch_hist"`
	FlushBoundaryStallNS uint64                   `json:"flush_boundary_stall_ns"`
	PersistCycles        uint64                   `json:"persist_cycles"`
	PersistCycleNS       uint64                   `json:"persist_cycle_ns"`
	BoundaryReductions   uint64                   `json:"boundary_reductions"`
	CrossNodeHelps       uint64                   `json:"cross_node_helps"`
	UpdateNowServices    uint64                   `json:"update_now_services"`

	// Async submission layer (internal/svc, internal/core ExecuteBatch).
	RingSubmits    uint64 `json:"ring_submits"`     // ops accepted into a submission ring
	RingFullStalls uint64 `json:"ring_full_stalls"` // TrySubmit rejections on a full ring
	RingBatches    uint64 `json:"ring_batches"`     // ExecuteBatch calls from ring consumers
	RingBatchedOps uint64 `json:"ring_batched_ops"` // ops carried by those calls

	// Detectable execution (internal/core desc.go, internal/harness resume).
	// DescriptorWrites counts operation descriptors written by combiners;
	// DescriptorFlushes counts the explicit per-line descriptor flushes of
	// the durable path (zero in Volatile and Buffered modes, whose
	// descriptors ride the checkpoint WBINVD); DedupHits counts in-flight
	// operations a post-crash resume resolved as already committed and
	// therefore did not resubmit.
	DescriptorWrites  uint64 `json:"descriptor_writes"`
	DescriptorFlushes uint64 `json:"descriptor_flushes"`
	DedupHits         uint64 `json:"dedup_hits"`
}

// Registry is the live, mutable counter set of one simulated machine
// (one nvm.System owns exactly one). Instrumented packages increment the
// embedded Counters fields directly.
type Registry struct {
	Counters
}

// NewRegistry returns a zeroed registry.
func NewRegistry() *Registry { return &Registry{} }

// ObserveBatch records one combined batch of n operations.
func (r *Registry) ObserveBatch(n uint64) {
	r.CombinerAcquisitions++
	r.CombinedOps += n
	r.BatchHist[batchBucket(n)]++
}

// batchBucket maps a batch size to its power-of-two histogram bucket.
func batchBucket(n uint64) int {
	b := 0
	for n > 1 && b < BatchHistBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// Snapshot is an immutable copy of the counters at one instant plus derived
// quantities. Snapshots of one registry taken at two instants can be
// subtracted to isolate a measurement phase. Snapshot is comparable (no
// slices or maps), so points carrying one still support == in tests.
type Snapshot struct {
	Counters
	// Flushes is FlushAsync + FlushSync: every explicit cache-line
	// write-back instruction issued.
	Flushes uint64 `json:"flushes"`
	// MeanBatchSize is CombinedOps / CombinerAcquisitions (0 when no
	// batches were combined).
	MeanBatchSize float64 `json:"mean_batch_size"`
}

// Snapshot copies the current counters and computes the derived fields.
func (r *Registry) Snapshot() Snapshot { return finish(r.Counters) }

// Sub returns the counter deltas s − base with derived fields recomputed
// over the delta. base must be an earlier snapshot of the same registry.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	return finish(combineCounters(s.Counters, base.Counters, func(x, y uint64) uint64 { return x - y }))
}

// Add returns the field-wise sum s + other with derived fields recomputed
// over the sum — the cross-instance aggregation primitive of the sharded
// harness: S independent machines each own a registry, and the aggregate
// record is the Add-fold of their snapshots.
func (s Snapshot) Add(other Snapshot) Snapshot {
	return finish(combineCounters(s.Counters, other.Counters, func(x, y uint64) uint64 { return x + y }))
}

func finish(c Counters) Snapshot {
	snap := Snapshot{Counters: c, Flushes: c.FlushAsync + c.FlushSync}
	if c.CombinerAcquisitions > 0 {
		snap.MeanBatchSize = float64(c.CombinedOps) / float64(c.CombinerAcquisitions)
	}
	return snap
}

// combineCounters applies op field-wise to a and b. Counters is a flat struct
// of uint64s and uint64 arrays; reflection keeps Sub and Add in lockstep with
// the field list (a new counter can never be forgotten, or silently dropped
// from an aggregate). This is a cold path — once per measured point or
// machine — so reflection cost is irrelevant.
func combineCounters(a, b Counters, op func(x, y uint64) uint64) Counters {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Uint64:
			fa.SetUint(op(fa.Uint(), fb.Uint()))
		case reflect.Array:
			for j := 0; j < fa.Len(); j++ {
				fa.Index(j).SetUint(op(fa.Index(j).Uint(), fb.Index(j).Uint()))
			}
		default:
			panic("metrics: unsupported Counters field kind " + fa.Kind().String())
		}
	}
	return a
}
