// Package core implements PREP-UC, the paper's contribution: a persistent
// universal construction based on node replication (NR-UC, Calciu et al.).
//
// The engine runs in one of three modes sharing a single code path:
//
//	Volatile  — PREP-V: plain node replication, no persistence machinery.
//	Buffered  — PREP-Buffered: buffered durably linearizable. The shared log
//	            stays volatile; two dedicated persistent replicas in NVM are
//	            maintained by a persistence thread and checkpointed (WBINVD)
//	            every ε operations, bounding loss at ε+β−1 completed update
//	            operations per crash.
//	Durable   — PREP-Durable: durably linearizable. Additionally places the
//	            log in NVM (flush args → fence → set emptyBits → flush →
//	            fence per combined batch) and persists completedTail before
//	            operations complete; no completed operation is ever lost.
//
// §3/§4/§5 of the paper map onto this package as follows: the shared log and
// its indexes live in internal/oplog; flat combining, the combiner protocol
// and read-only path are in engine.go; log-entry reuse (Algorithm 3) and
// reservation gating (Algorithm 4) in logmin.go; the persistence thread
// (Algorithm 2) in persist.go; and the recovery procedures in recovery.go.
package core

import (
	"fmt"

	"prepuc/internal/numa"
	"prepuc/internal/uc"
)

// Mode selects the persistence level of the construction.
type Mode int

const (
	// Volatile is PREP-V / NR-UC: no persistence.
	Volatile Mode = iota
	// Buffered is PREP-Buffered: buffered durable linearizability.
	Buffered
	// Durable is PREP-Durable: durable linearizability.
	Durable
)

func (m Mode) String() string {
	switch m {
	case Volatile:
		return "PREP-V"
	case Buffered:
		return "PREP-Buffered"
	case Durable:
		return "PREP-Durable"
	default:
		return "unknown"
	}
}

// Persistent reports whether the mode maintains persistent replicas.
func (m Mode) Persistent() bool { return m != Volatile }

// Config parameterizes a PREP-UC instance.
type Config struct {
	Mode     Mode
	Topology numa.Topology
	// Workers is the number of worker threads n; replicas are created for
	// ceil(n/β) nodes.
	Workers int
	// LogSize is the shared log capacity in entries (the paper uses 1M).
	LogSize uint64
	// Epsilon is the flush-boundary increment ε: the persistence thread
	// checkpoints the active persistent replica after ε log entries. Must
	// satisfy ε ≤ LogSize − β − 1. Ignored in Volatile mode.
	Epsilon uint64
	// Factory creates the sequential object; Attacher re-opens it after a
	// crash (required for Buffered/Durable).
	Factory  uc.Factory
	Attacher uc.Attacher
	// HeapWords is the per-replica heap size in words.
	HeapWords uint64
	// Instance namespaces every region name (log, replicas, generations,
	// descriptors, commit record) so multiple fully independent PREP engines
	// can co-reside on one nvm.System — the multi-instance boot path of the
	// sharded deployment. Empty keeps the historical bare names, so every
	// existing persisted layout (and golden) is untouched. Recovery threads
	// the same prefix through, which is what makes per-shard generations
	// independent: shard "s3" recovering to generation 2 never collides
	// with shard "s1" still on generation 0.
	Instance string
	// Detect enables detectable execution: a per-worker persistent
	// descriptor table records (invocation id, log position, result) for
	// every update operation submitted with a nonzero uc.Op.Invid, so
	// recovery can answer completed-with-result / never-applied for each
	// in-flight invocation (RecoveryReport.Resolved). Costs one descriptor
	// write per detectable update, plus one flush in Durable mode — no
	// extra fences (the descriptor flush shares the pre-full-mark fence);
	// Buffered-mode descriptors ride the checkpoint WBINVD for free. Off,
	// the engine's behavior is bit-identical to a build without the
	// feature.
	Detect bool

	// Ablations holds the design-ablation switches. The embedding promotes
	// each switch (cfg.NoBatching etc.), so call sites toggling a single
	// switch read the same as before the grouping.
	Ablations
}

// Ablations are the switches that disable individual design elements of the
// paper for ablation studies. The zero value is the paper's design.
type Ablations struct {
	// PerLineFlush replaces WBINVD checkpointing with flushing exactly the
	// dirty lines of the active persistent replica — the write-tracking
	// strategy a black-box PUC cannot actually implement; quantifies the
	// cost of WBINVD.
	PerLineFlush bool
	// NoBatching disables flat combining: each combiner appends only its own
	// operation (ablation for the batching design choice).
	NoBatching bool
	// SinglePReplica keeps only one persistent replica — the unsound design
	// §4.1 warns about; crash tests demonstrate it corrupts recovery when
	// background flushes are enabled.
	SinglePReplica bool
}

// Validate checks the configuration for internal consistency; New calls it,
// and external tooling that assembles Configs programmatically can call it
// early to fail before allocating a machine.
func (c *Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: Workers must be positive, got %d", c.Workers)
	}
	if c.Topology.Nodes <= 0 || c.Topology.ThreadsPerNode <= 0 {
		return fmt.Errorf("core: invalid topology %+v", c.Topology)
	}
	if c.Workers > c.Topology.TotalThreads() {
		return fmt.Errorf("core: %d workers exceed %d hardware threads",
			c.Workers, c.Topology.TotalThreads())
	}
	if c.LogSize < 2 {
		return fmt.Errorf("core: LogSize %d too small", c.LogSize)
	}
	beta := uint64(c.Topology.ThreadsPerNode)
	if c.Mode.Persistent() {
		if c.Epsilon == 0 {
			return fmt.Errorf("core: Epsilon required in persistent modes")
		}
		// LogSize−β−1 wraps around for a log of β entries or fewer (no ε fits).
		if c.LogSize <= beta || c.Epsilon > c.LogSize-beta-1 {
			return fmt.Errorf("core: Epsilon %d violates ε ≤ LogSize−β−1 (LogSize %d, β %d)",
				c.Epsilon, c.LogSize, beta)
		}
		if c.Attacher == nil {
			return fmt.Errorf("core: Attacher required in persistent modes")
		}
	}
	if c.Factory == nil {
		return fmt.Errorf("core: Factory required")
	}
	if c.HeapWords == 0 {
		return fmt.Errorf("core: HeapWords required")
	}
	return nil
}
