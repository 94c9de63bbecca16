package core

import (
	"fmt"

	"prepuc/internal/locks"
	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/oplog"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Per-replica control memory layout (word offsets). Locks, the localTail
// and the flat-combining batch live in node-local volatile memory so worker
// threads pay local access costs, exactly like NR-UC's per-node replica
// metadata. The reader–writer lock is NR's distributed lock — one cache
// line per reader — so read-only operations never ping-pong a shared lock
// word; its region starts at ctrlRW and spans (1+β) lines, with the β
// flat-combining slots following it.
const (
	ctrlCombiner  = 0  // combiner trylock word
	ctrlLocalTail = 8  // replica's localTail
	ctrlUpdateNow = 16 // updateReplicaNow flag for this replica
	ctrlRW        = 24 // distributed reader–writer lock region
	slotWords     = 8  // one cache line per batch slot
	slotState     = 0
	slotCode      = 1
	slotA0        = 2
	slotA1        = 3
	slotResp      = 4
	slotInvid     = 5 // invocation id for detectable execution (0 = none)
)

// Batch slot states.
const (
	slotEmpty   = 0
	slotPending = 1
	slotDone    = 2
)

// Global control memory layout (volatile, interleaved).
const (
	gFlushBoundary = 0
	gStop          = 8
	gPTail0        = 16 // volatile mirror of persistent replica 0's localTail
	gPTail1        = 24
	gActive        = 32 // volatile mirror of p_activePReplica
)

// Persistent metadata memory layout (NVM).
const metaActive = 0 // p_activePReplica

// The heap root slot where each persistent replica stores its localTail
// (slot 0 is the sequential object's own root).
const pTailRootSlot = 1

// replica is one NUMA node's volatile replica with its flat-combining state.
type replica struct {
	node     int
	ds       uc.DataStructure
	heap     *nvm.Memory // ds's memory, declared under rw (rwlock.go)
	ctrl     *nvm.Memory
	combiner locks.TryLock
	rw       locks.DistRWLock
	// slotsBase is where the β flat-combining slots start in ctrl.
	slotsBase uint64
	// flusher is used only while holding the combiner lock (durable mode),
	// so it is effectively thread-exclusive.
	flusher *nvm.Flusher
	// batchScratch backs the combiner's batch slice; like flusher it is only
	// touched under the combiner lock, so one buffer per replica suffices.
	batchScratch []int
	// resScratch buffers the detectable path's batch results between apply
	// and response delivery (persist-before-respond); combiner-lock
	// protected like batchScratch.
	resScratch []uint64
}

func (r *replica) localTail(t *sim.Thread) uint64 { return r.ctrl.Load(t, ctrlLocalTail) }
func (r *replica) setLocalTail(t *sim.Thread, v uint64) {
	r.ctrl.Store(t, ctrlLocalTail, v)
}
func (r *replica) setUpdateNow(t *sim.Thread, v uint64) {
	r.ctrl.Store(t, ctrlUpdateNow, v)
}
func (r *replica) slotOff(slot int) uint64 { return r.slotsBase + uint64(slot)*slotWords }

// pReplica is one of the two dedicated persistent replicas (§4.1).
type pReplica struct {
	id    int
	heap  *nvm.Memory
	alloc *pmem.Allocator
	ds    uc.DataStructure
}

// PREP is one instance of the PREP-UC universal construction.
type PREP struct {
	cfg   Config
	sys   *nvm.System
	log   *oplog.Log
	beta  uint64
	nodes int
	reps  []*replica
	preps []*pReplica
	meta  *nvm.Memory
	lin   uc.Lineage // the generation built at; commit record attached in persistent modes only
	gctrl *nvm.Memory
	desc  *descTable // operation descriptors; nil unless cfg.Detect
	met   *metrics.Registry
	waits locks.Waits
}

var _ uc.UC = (*PREP)(nil)

// lineage is generation 0 of the engine's lineage: Config.Instance namespaces
// the regions and the commit record alike, so co-resident engines keep
// disjoint generations, and the empty instance keeps the bare names.
func (c Config) lineage() uc.Lineage { return uc.NewLineage(c.Instance, "prep.commit") }

// New builds a PREP-UC instance inside sys. In persistent modes it also
// writes the initial checkpoint (empty persistent replicas plus metadata)
// and commits the generation, so a crash before the first persistence cycle
// recovers an empty object.
func New(t *sim.Thread, sys *nvm.System, cfg Config) (*PREP, error) {
	p, err := newEngine(t, sys, cfg, cfg.lineage())
	if err != nil {
		return nil, err
	}
	if cfg.Mode.Persistent() {
		p.lin.Commit(t)
	}
	return p, nil
}

// newEngine builds the engine at generation lin without committing it.
// Recover uses it directly: the new generation must not become the recovery
// source until its replicas hold the recovered state and are checkpointed.
func newEngine(t *sim.Thread, sys *nvm.System, cfg Config, lin uc.Lineage) (*PREP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PREP{
		cfg:   cfg,
		sys:   sys,
		lin:   lin,
		beta:  uint64(cfg.Topology.ThreadsPerNode),
		nodes: cfg.Topology.NodesFor(cfg.Workers),
		met:   sys.Metrics(),
	}
	logKind := nvm.Volatile
	if cfg.Mode == Durable {
		logKind = nvm.NVM
	}
	logMem := sys.NewMemory(lin.Name("log"), logKind, nvm.Interleaved, oplog.WordsFor(cfg.LogSize))
	p.log = oplog.New(t, logMem, cfg.LogSize)

	p.gctrl = sys.NewMemory(lin.Name("gctrl"), nvm.Volatile, nvm.Interleaved, 64)
	if cfg.Mode.Persistent() {
		p.gctrl.Store(t, gFlushBoundary, cfg.Epsilon)
	}

	if cfg.Detect {
		// The descriptor table shares the log's placement: written by any
		// node's combiner, read only by recovery. It is volatile in Volatile
		// mode (descriptors still record, for API uniformity and tests, but
		// nothing persists them).
		descKind := nvm.Volatile
		if cfg.Mode.Persistent() {
			descKind = nvm.NVM
		}
		p.desc = newDescTable(
			sys.NewMemory(lin.Name("desc"), descKind, nvm.Interleaved, descTableWords(cfg.Workers)),
			cfg.Workers)
	}

	slotsBase := ctrlRW + locks.DistRWLockWords(int(p.beta))
	for node := 0; node < p.nodes; node++ {
		heap := sys.NewMemory(lin.Name(fmt.Sprintf("rheap%d", node)), nvm.Volatile, node, cfg.HeapWords)
		r := &replica{
			node:      node,
			ds:        cfg.Factory(t, pmem.New(t, heap)),
			heap:      heap,
			ctrl:      sys.NewMemory(lin.Name(fmt.Sprintf("rctrl%d", node)), nvm.Volatile, node, slotsBase+p.beta*slotWords),
			slotsBase: slotsBase,
		}
		r.batchScratch = make([]int, 0, p.beta) // a batch holds at most β slots
		r.combiner = locks.NewTryLock(r.ctrl, ctrlCombiner)
		r.rw = locks.NewDistRWLock(r.ctrl, ctrlRW, int(p.beta))
		if cfg.Mode == Durable {
			r.flusher = sys.NewFlusher()
		}
		p.reps = append(p.reps, r)
	}

	if cfg.Mode.Persistent() {
		pn := cfg.Topology.PersistenceNode()
		p.meta = sys.NewMemory(lin.Name("meta"), nvm.NVM, pn, nvm.WordsPerLine)
		nP := 2
		if cfg.SinglePReplica {
			nP = 1
		}
		for i := 0; i < nP; i++ {
			heap := sys.NewMemory(lin.Name(fmt.Sprintf("pheap%d", i)), nvm.NVM, pn, cfg.HeapWords)
			alloc := pmem.New(t, heap)
			pr := &pReplica{id: i, heap: heap, alloc: alloc, ds: cfg.Factory(t, alloc)}
			alloc.SetRoot(t, pTailRootSlot, 0)
			p.preps = append(p.preps, pr)
		}
		p.meta.Store(t, metaActive, 0)
		p.gctrl.Store(t, gActive, 0)
		p.lin.EnsureCommit(sys, pn)
		p.checkpoint(t)
	}
	return p, nil
}

// checkpoint persists every persistent replica and the metadata word. With
// detectable execution the descriptor table is checkpointed too: Buffered
// mode's descriptors are plain volatile-path stores whose durability rides
// this WBINVD, and the ordering below (descriptors written before full
// marks, the persistence thread applying only full entries, the stable tail
// advancing only through a checkpoint) guarantees every operation the
// stable replica contains has a durable descriptor.
func (p *PREP) checkpoint(t *sim.Thread) {
	mems := make([]*nvm.Memory, 0, 3)
	for _, pr := range p.preps {
		mems = append(mems, pr.heap)
	}
	if p.desc != nil {
		mems = append(mems, p.desc.mem)
	}
	p.sys.WBINVD(t, mems...)
	f := p.sys.NewFlusher()
	f.FlushLineSync(t, p.meta, metaActive)
}

// Prefill applies ops directly to every replica — volatile and persistent —
// before measurement, then re-checkpoints the persistent state. It must run
// before any worker executes operations (the log stays empty; prefilled
// state plays the role of the recovered-from checkpoint). The ops are
// replayed once, into replica 0, while nvm.Memory.Mirror applies every access
// to the other replica heaps too: each heap, its persisted view and the boot
// thread's clock end exactly as a replay into each replica would leave them
// (DESIGN.md §7, "Prefill by mirror").
func (p *PREP) Prefill(t *sim.Thread, ops []uc.Op) {
	src := p.reps[0]
	dsts := make([]*nvm.Memory, 0, len(p.reps)-1+len(p.preps))
	for _, r := range p.reps[1:] {
		dsts = append(dsts, r.heap)
	}
	for _, pr := range p.preps {
		dsts = append(dsts, pr.heap)
	}
	src.heap.Mirror(t, dsts...)
	for _, op := range ops {
		src.ds.Execute(t, op.Code, op.A0, op.A1)
	}
	src.heap.Release(t)
	if p.cfg.Mode.Persistent() {
		p.checkpoint(t)
	}
}

// DumpState returns replica 0's state as the flat (code, a0, a1) triples its
// Dump emits. Tests compare dumps across recovery attempts for idempotence.
func (p *PREP) DumpState(t *sim.Thread) []uint64 {
	var out []uint64
	p.reps[0].ds.Dump(t, func(code, a0, a1 uint64) {
		out = append(out, code, a0, a1)
	})
	return out
}

// Stats snapshots the machine-wide metrics registry.
func (p *PREP) Stats() metrics.Snapshot { return p.met.Snapshot() }

// flushBoundary accessors.
func (p *PREP) flushBoundary(t *sim.Thread) uint64 { return p.gctrl.Load(t, gFlushBoundary) }
func (p *PREP) setFlushBoundary(t *sim.Thread, v uint64) {
	p.gctrl.Store(t, gFlushBoundary, v)
}

// pTail reads the volatile mirror of persistent replica i's localTail.
func (p *PREP) pTail(t *sim.Thread, i int) uint64 {
	return p.gctrl.Load(t, gPTail0+uint64(i)*nvm.WordsPerLine)
}

// setPTail writes both the volatile mirror and the NVM copy (heap root
// slot); the NVM copy rides to the media with the next WBINVD, keeping the
// persisted (state, localTail) pair consistent.
func (p *PREP) setPTail(t *sim.Thread, pr *pReplica, v uint64) {
	p.gctrl.Store(t, gPTail0+uint64(pr.id)*nvm.WordsPerLine, v)
	pr.alloc.SetRoot(t, pTailRootSlot, v)
}

// activeP reads the volatile mirror of p_activePReplica.
func (p *PREP) activeP(t *sim.Thread) uint64 { return p.gctrl.Load(t, gActive) }

// Execute implements the paper's ExecuteConcurrent: run op on behalf of
// worker tid and return its result.
func (p *PREP) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	t.Step(p.sys.Costs().OpBase)
	node := p.cfg.Topology.NodeOf(tid)
	rep := p.reps[node]
	slot := p.cfg.Topology.SlotOf(tid)
	if rep.ds.IsReadOnly(op.Code) {
		p.met.Reads++
		return p.readOnly(t, rep, slot, op)
	}
	p.met.Updates++
	return p.update(t, rep, slot, op)
}

// readOnly performs a read-only operation: the thread waits (helping if it
// can) until the local replica has applied everything up to completedTail,
// then reads under its slot of the distributed reader lock (§3).
func (p *PREP) readOnly(t *sim.Thread, rep *replica, slot int, op uc.Op) uint64 {
	ct := p.log.CompletedTail(t)
	w := p.waits.Of(t)
	*w = locks.Wait{Mem: rep.ctrl, Off: ctrlLocalTail, Want: ct, Lock: &rep.combiner, Cap: 512}
	for {
		t.Await(w)
		if w.Served {
			break
		}
		if rep.combiner.Take(t) {
			if rep.localTail(t) < ct {
				rep.writeLock(t)
				p.catchUp(t, rep, p.log.CompletedTail(t), nil)
				rep.writeUnlock(t)
			}
			rep.combiner.Release(t)
			break
		}
		w.Retry()
	}
	rep.readLock(t, slot)
	res := rep.ds.Execute(t, op.Code, op.A0, op.A1)
	rep.readUnlock(t, slot)
	return res
}

// applyLog replays entries [from, to) onto ds, spinning until each entry is
// full. When f is non-nil (a durable-mode combiner about to advance
// completedTail), every applied entry's line is also asynchronously flushed
// so that the caller's fence + completedTail persist cannot cover an
// unpersisted entry of another combiner (see DESIGN.md §3).
//
// progress (optional) is invoked after each applied entry with the new
// applied-up-to index. Publishing the replica's localTail incrementally is
// load-bearing for liveness: an applier can stall mid-replay on an entry
// that a *blocked* combiner reserved but has not written, and that combiner
// may itself be waiting (in UpdateOrWaitOnLogMin) for this replica's
// localTail to move past the reuse horizon — without incremental progress
// the two would deadlock.
func (p *PREP) applyLog(t *sim.Thread, ds uc.DataStructure, from, to uint64, f *nvm.Flusher, progress func(uint64)) {
	w := p.waits.Of(t)
	for idx := from; idx < to; idx++ {
		// Each entry restarts the truncated-exponential ladder.
		*w = locks.Wait{Mem: p.log.Mem(), Off: p.log.FullMarkOff(idx), Want: p.log.FullMark(idx), Exact: true, Cap: 512}
		t.Await(w)
		code, a0, a1 := p.log.ReadEntry(t, idx)
		if f != nil {
			f.FlushLine(t, p.log.Mem(), p.log.EntryOff(idx))
		}
		ds.Execute(t, code, a0, a1)
		if progress != nil {
			progress(idx + 1)
		}
	}
}

// update performs an update operation through flat combining (§3): publish
// the op in this thread's batch slot, then either become the combiner or
// wait for a combiner to deliver the response.
func (p *PREP) update(t *sim.Thread, rep *replica, slot int, op uc.Op) uint64 {
	so := rep.slotOff(slot)
	rep.ctrl.Store(t, so+slotCode, op.Code)
	rep.ctrl.Store(t, so+slotA0, op.A0)
	rep.ctrl.Store(t, so+slotA1, op.A1)
	if p.desc != nil {
		rep.ctrl.Store(t, so+slotInvid, op.Invid)
	}
	rep.ctrl.Store(t, so+slotState, slotPending)
	// Wait until a combiner serves the slot (slotDone is the largest state)
	// or the combiner lock looks free.
	w := p.waits.Of(t)
	*w = locks.Wait{Mem: rep.ctrl, Off: so + slotState, Want: slotDone, Lock: &rep.combiner, Cap: 1024}
	for {
		t.Await(w)
		if w.Served {
			rep.ctrl.Store(t, so+slotState, slotEmpty)
			return rep.ctrl.Load(t, so+slotResp)
		}
		if rep.combiner.Take(t) {
			if rep.ctrl.Load(t, so+slotState) == slotDone {
				// A previous combiner already serviced us.
				rep.combiner.Release(t)
				rep.ctrl.Store(t, so+slotState, slotEmpty)
				return rep.ctrl.Load(t, so+slotResp)
			}
			res := p.combine(t, rep, slot)
			rep.combiner.Release(t)
			return res
		}
		w.Retry()
	}
}
