package core

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// This file implements the dedicated persistence thread (Algorithm 2). The
// thread cycles between the two persistent replicas: the *active* replica
// receives updates from the log; when completedTail crosses the flush
// boundary the thread write-backs the whole cache (WBINVD + SFENCE),
// persists the active/stable swap, and only then opens the boundary by ε.
//
// Two deliberate deviations from the paper's pseudocode, both discussed in
// DESIGN.md:
//
//  1. The swap of p_activePReplica is persisted *before* flushBoundary is
//     advanced. Algorithm 2 advances the boundary first, which opens a
//     window where ε further operations complete while the freshly
//     checkpointed replica is not yet marked stable; a crash there loses up
//     to 2ε operations. Persisting the swap first preserves the paper's
//     claimed ε+β−1 bound.
//  2. The flush condition is evaluated even when the active replica is
//     already up to date with completedTail. Algorithm 2 `continue`s in
//     that case, which can deadlock when every combiner is blocked waiting
//     for a logMin advance that requires a persistence cycle (the §5.1
//     helping mechanism reduces flushBoundary to request one).

// persistIdleCost is the virtual-time cost of one idle poll of the
// persistence loop.
const persistIdleCost = 200

// PersistenceLoop runs the persistence thread until StopPersistence is
// called (or the system crashes, unwinding the thread). It must run on its
// own simulated thread, pinned per the topology's PersistenceNode.
func (p *PREP) PersistenceLoop(t *sim.Thread) {
	if !p.cfg.Mode.Persistent() {
		panic("core: PersistenceLoop in volatile mode")
	}
	f := p.sys.NewFlusher()
	// No other thread reads or writes the persistent replicas while this
	// loop runs, so their accesses need no dispatch decision (DESIGN.md §7,
	// "Private memories"). A crash ends the declaration with the machine:
	// Recover and Clone do not carry it over.
	for _, pr := range p.preps {
		pr.heap.SetPrivate(t, true)
	}
	// A previous persistence thread's stop request (StopPersistence sets
	// gStop and never clears it) must not kill this run: the loop is
	// re-entrant so a stopped engine can be driven again — e.g. the
	// verification probe phase after a measured phase.
	p.gctrl.Store(t, gStop, 0)
	for p.gctrl.Load(t, gStop) == 0 {
		active := int(p.activeP(t))
		pr := p.preps[active]
		tail := p.log.CompletedTail(t)
		lt := p.pTail(t, active)
		if tail > lt {
			// Publish progress through the volatile mirror per entry (for
			// the logMin scans); the NVM copy only needs the final value.
			p.applyLog(t, pr.ds, lt, tail, nil, func(applied uint64) {
				p.gctrl.Store(t, gPTail0+uint64(pr.id)*nvm.WordsPerLine, applied)
			})
			p.setPTail(t, pr, tail)
		} else {
			tail = lt
		}
		if p.flushBoundary(t) <= tail {
			p.persistCycle(t, f, pr)
		} else if p.log.CompletedTail(t) <= tail {
			t.Step(persistIdleCost)
		}
	}
	for _, pr := range p.preps {
		pr.heap.SetPrivate(t, false)
	}
}

// persistCycle checkpoints the active replica and swaps roles (end of an
// update cycle, §4.1).
func (p *PREP) persistCycle(t *sim.Thread, f *nvm.Flusher, pr *pReplica) {
	start := t.Clock()
	p.met.PersistCycles++
	if p.cfg.PerLineFlush {
		// Ablation: flush exactly the dirty lines (needs write tracking a
		// black-box PUC does not have).
		pr.heap.FlushAllDirty(t)
		if p.desc != nil {
			p.desc.mem.FlushAllDirty(t)
		}
	} else if p.desc != nil {
		// The descriptor table rides the checkpoint: persisting it before
		// the meta swap below means every operation at or below the stable
		// tail this cycle establishes has a durable descriptor (buffered
		// detectability costs no flushes on the operation path).
		p.sys.WBINVD(t, pr.heap, p.desc.mem)
		f.Fence(t)
	} else {
		p.sys.WBINVD(t, pr.heap)
		f.Fence(t)
	}
	if !p.cfg.SinglePReplica {
		newActive := 1 - uint64(pr.id)
		p.meta.Store(t, metaActive, newActive)
		f.FlushLineSync(t, p.meta, metaActive)
		p.gctrl.Store(t, gActive, newActive)
	}
	p.setFlushBoundary(t, p.flushBoundary(t)+p.cfg.Epsilon)
	p.met.PersistCycleNS += t.Clock() - start
}

// StopPersistence asks the persistence thread to exit after its current
// iteration. Call it only after every worker has finished: workers blocked
// on the flush boundary rely on the persistence thread for progress.
func (p *PREP) StopPersistence(t *sim.Thread) {
	p.gctrl.Store(t, gStop, 1)
}

// SpawnPersistence starts the persistence thread on the engine's scheduler,
// pinned to the topology's persistence node, starting at the given clock.
func (p *PREP) SpawnPersistence(startClock uint64) {
	p.sys.Scheduler().Spawn("persistence", p.cfg.Topology.PersistenceNode(), startClock, p.PersistenceLoop)
}
