package core

import (
	"fmt"

	"prepuc/internal/nvm"
	"prepuc/internal/oplog"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// RecoveryReport describes what recovery found and rebuilt.
type RecoveryReport struct {
	// SourceGeneration is the generation recovery read its state from: the
	// last committed one (uc.Lineage.Source).
	SourceGeneration int
	// Generation is the rebuilt engine's generation. The generations between
	// the two are abandoned, partially built ones this recovery skipped over —
	// one per crash that hit an earlier recovery attempt since the last
	// committed generation.
	Generation int
	// StableLocalTail is the log index the stable replica was persisted at.
	StableLocalTail uint64
	// CompletedTail is the recovered completedTail (durable mode only).
	CompletedTail uint64
	// Replayed is the number of log entries re-applied (durable mode only).
	Replayed uint64
	// Holes is the number of skipped not-fully-persisted entries during
	// replay; with the engine's flush protocol this is always 0 below
	// completedTail and a non-zero value indicates a protocol violation.
	Holes uint64
	// Resolved is detectable execution's verdict map (nil unless
	// Config.Detect): invocation id → result for every operation whose
	// durable descriptor proves it committed and whose effect is in the
	// recovered state. Absence is equally definite — the operation never
	// applied, its effect is not in the recovered state, and the client may
	// resubmit without risking a double apply.
	Resolved map[uint64]uint64
	// DescriptorsCarried counts resolved verdicts re-recorded in the new
	// generation's descriptor table, so a crash during or immediately after
	// this recovery re-resolves every invocation id to the same answer.
	DescriptorsCarried uint64
}

// DebugInPlaceReplay, when set, reintroduces the historical recovery bug
// this package once shipped: durable log replay executes into the *source*
// generation's stable heap in place, and the new generation's first replica
// is cloned from the mutated heap afterwards. A crash-free recovery produces
// the identical state either way — which is how the bug survived basic
// testing — but background write-backs during replay leak the partially
// replayed heap into its persisted view, so a nested crash makes the next
// recovery attempt start from a torn stable heap (e.g. a bucket head
// persisted pointing at a node whose line was not, cutting off every key
// behind it that the log cannot re-create). It exists solely so the
// exhaustive explorer's mutation test can prove the checker catches the bug;
// never set it outside a test.
var DebugInPlaceReplay = false

// Recover rebuilds a PREP-UC instance from the NVM contents that survived a
// crash (§5.1, §5.2). recSys must come from nvm.System.Recover, and cfg must
// be the configuration the crashed lineage was booted with. The lineage
// (uc.Lineage) selects the committed generation recovery reads and the free
// one the rebuilt engine takes; the source generation's NVM regions are read
// but never written. In particular, durable log replay executes into the NEW
// generation's first persistent replica, never into the source generation's
// stable heap: the stable heap is the only consistent copy in existence, and
// mutating it would make a crash during recovery unrecoverable (background
// write-backs leak the partially replayed heap into its persisted view,
// corrupting the state the next recovery attempt starts from).
//
// Recover is re-entrant: killed at any event and re-run against the
// re-crashed machine, it reads the same committed source state, because the
// commit record flips to the new generation only after that generation's
// replicas are checkpointed (the final step below).
//
// Buffered mode recovers exactly the stable persistent replica's state: all
// replicas are instantiated as copies of it, every index is reset, and the
// (volatile, hence lost) log starts empty. Durable mode clones the stable
// state and then replays the persisted log entries in
// [stable.localTail, completedTail) on top of the clone, so every completed
// operation is recovered.
func Recover(t *sim.Thread, recSys *nvm.System, cfg Config) (*PREP, *RecoveryReport, error) {
	if !cfg.Mode.Persistent() {
		return nil, nil, fmt.Errorf("core: cannot recover a volatile instance")
	}
	met := recSys.Metrics()
	rep := &RecoveryReport{}

	src, err := cfg.lineage().Source(recSys)
	if err != nil {
		return nil, nil, err
	}
	rep.SourceGeneration = src.Generation()

	// Identify the stable persistent replica via p_activePReplica.
	meta := recSys.Memory(src.Name("meta"))
	active := meta.Load(t, metaActive)
	stable := 1 - active
	if cfg.SinglePReplica {
		stable = 0
	}

	sheap := recSys.Memory(src.Name(fmt.Sprintf("pheap%d", stable)))
	salloc := pmem.Attach(t, sheap)
	sds := cfg.Attacher(t, salloc)
	rep.StableLocalTail = salloc.Root(t, pTailRootSlot)

	// Build a fresh engine in the first free generation. The source
	// generation is only read from here on: its stable heap seeds the new
	// generation's first persistent replica, durable replay runs on that
	// copy, and every other replica is cloned from the result. The new
	// generation stays uncommitted until its state is checkpointed.
	next := src.Next(recSys)
	rep.Generation = next.Generation()
	p, err := newEngine(t, recSys, cfg, next)
	if err != nil {
		return nil, nil, err
	}
	rds := p.preps[0].ds
	inPlace := DebugInPlaceReplay && cfg.Mode == Durable
	if !inPlace {
		uc.Clone(t, sds, rds)
	}

	if cfg.Mode == Durable {
		target := rds
		if inPlace {
			target = sds
		}
		logMem := recSys.Memory(src.Name("log"))
		l := oplog.Attach(logMem, cfg.LogSize)
		rep.CompletedTail = l.PersistedCompletedTail()
		for idx := rep.StableLocalTail; idx < rep.CompletedTail; idx++ {
			if !l.PersistedIsFull(idx) {
				rep.Holes++
				met.ReplayHoles++
				continue
			}
			code, a0, a1 := l.PersistedReadEntry(idx)
			target.Execute(t, code, a0, a1)
			rep.Replayed++
		}
		if inPlace {
			uc.Clone(t, sds, rds)
		}
	}

	if cfg.Detect {
		// Resolve every operation descriptor of the crashed generation
		// against the recovery horizon: in Durable mode an operation is in
		// the recovered state iff its log position precedes the persisted
		// completedTail (the replay bound above); in Buffered mode iff it
		// precedes the stable replica's checkpointed tail. Descriptors are
		// one line each and the crash materializes per line, so a record is
		// either wholly present or absent — and the engine's
		// fence-before-full-mark order guarantees any operation whose effect
		// survived has a present descriptor (DESIGN.md §11).
		horizon := rep.StableLocalTail
		if cfg.Mode == Durable {
			horizon = rep.CompletedTail
		}
		resolved, byWorker := scanDescriptors(
			recSys.Memory(src.Name("desc")), cfg.Workers, horizon)
		rep.Resolved = resolved
		// Carry the verdicts into the new generation's table (flags mark
		// them committed unconditionally): a nested crash re-scans either
		// the old generation (commit record not yet flipped) or these
		// records, and resolves every invocation id identically.
		for w, recs := range byWorker {
			for _, r := range recs {
				p.desc.carry(t, w, r[0], r[1])
				rep.DescriptorsCarried++
			}
		}
	}

	// Instantiate every other replica — volatile and persistent — as a copy
	// of the recovered state.
	for _, r := range p.reps {
		uc.Clone(t, rds, r.ds)
	}
	for _, pr := range p.preps[1:] {
		uc.Clone(t, rds, pr.ds)
	}
	// Persist the rebuilt persistent replicas and metadata, then flip the
	// commit record: an immediate second crash — anywhere, including between
	// these two steps — recovers the same state.
	p.checkpoint(t)
	p.lin.Commit(t)
	return p, rep, nil
}
