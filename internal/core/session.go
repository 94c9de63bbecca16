package core

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// This file is the combiner session: the one place the §3 flat-combining /
// §4.1 persist-before-respond protocol is written. A session holds a
// replica's combiner lock, reserves [tail, tail+num) in the log and runs the
// five steps below — once each, in one of two orders (DESIGN.md §3 has the
// table). Both batch sources, combine (the node's pending slots) and
// ExecuteBatch (a caller's op slice), are that sequence and nothing else.
//
// Legacy order — no operation of the batch carries an invocation id:
//
//	publishArgs* → raiseFullMarks → [write lock] catchUp → publishTail →
//	apply the batch, delivering each result as it is computed
//
// Detectable order — some operation has a nonzero Invid and p.desc != nil:
//
//	publishArgs* → [write lock] catchUp → apply the batch, recordDescriptor
//	per detectable update → raiseFullMarks → publishTail → deliver results
//
// The difference is *when* the batch executes and the full marks appear.
// The full marks are the operations' only escape hatch: no other combiner,
// no persistence thread, and no persisted completedTail can cover an entry
// before its mark is set, so raising them only after the fence that covers
// the descriptors means that by the time any effect of the batch can
// survive a crash, its descriptors already have. Cost relative to the
// legacy order: one flush per detectable operation and zero extra fences
// (the descriptor flushes share the fence the entry args already needed).
//
// Liveness is the same in both: between reservation and the full marks the
// combiner only waits on entries *below* its reservation (the catch-up), so
// induction on the earliest unfull reserved entry goes through either way.
//
// Every step takes the replica's flusher, which is nil outside Durable mode:
// a nil flusher skips the step's flushes and fences and leaves its stores.

// publishArgs writes one update into its reserved entry, which stays
// not-full; durable mode flushes the entry line (§4.1).
func (p *PREP) publishArgs(t *sim.Thread, f *nvm.Flusher, idx, code, a0, a1 uint64) {
	p.log.WriteArgs(t, idx, code, a0, a1)
	if f != nil {
		f.FlushLine(t, p.log.Mem(), p.log.EntryOff(idx))
	}
}

// raiseFullMarks fences everything the session flushed so far — entry args,
// catch-up lines and, in detectable order, descriptors — and only then sets
// the emptyBits of [tail, tail+num), flushing each so the next fence makes
// the marks durable before completedTail can cover them.
func (p *PREP) raiseFullMarks(t *sim.Thread, f *nvm.Flusher, tail, num uint64) {
	if f != nil {
		f.Fence(t)
	}
	for idx := tail; idx < tail+num; idx++ {
		p.log.SetFull(t, idx)
		if f != nil {
			f.FlushLine(t, p.log.Mem(), p.log.EntryOff(idx))
		}
	}
}

// catchUp applies log entries [localTail, upTo) to rep, publishing localTail
// per applied entry (see applyLog). Callers hold the replica's combiner lock
// and write lock. A durable session about to advance completedTail passes
// its flusher so the applied entries' lines join its pending flush set;
// every other caller passes nil.
func (p *PREP) catchUp(t *sim.Thread, rep *replica, upTo uint64, f *nvm.Flusher) {
	p.applyLog(t, rep.ds, rep.localTail(t), upTo, f, func(applied uint64) {
		rep.setLocalTail(t, applied)
	})
}

// publishTail advances localTail over the session's own batch (which the
// session applies under the write lock it holds), fences the full marks and
// catch-up lines, moves completedTail to cover the batch (monotonic CAS
// loop) and, durable, persists it — before any response is written.
func (p *PREP) publishTail(t *sim.Thread, rep *replica, f *nvm.Flusher, newTail uint64) {
	rep.setLocalTail(t, newTail)
	if f != nil {
		f.Fence(t)
	}
	for {
		ct := p.log.CompletedTail(t)
		if ct >= newTail || p.log.CASCompletedTail(t, ct, newTail) {
			break
		}
	}
	if f != nil {
		p.log.PersistCompletedTail(t, f)
	}
}

// recordDescriptor writes worker w's descriptor for a detectable update
// applied at logpos and, durable, flushes its line; the fence that covers it
// is raiseFullMarks'.
func (p *PREP) recordDescriptor(t *sim.Thread, f *nvm.Flusher, w int, invid, logpos, res uint64) {
	off := p.desc.write(t, w, invid, logpos, res)
	p.met.DescriptorWrites++
	if f != nil {
		f.FlushLine(t, p.desc.mem, off)
		p.met.DescriptorFlushes++
	}
}

// respond delivers res to slot s. The combiner's own slot is just freed (it
// returns its result itself); any other waiter gets the response, then the
// done mark it spins on.
func (rep *replica) respond(t *sim.Thread, s int, own bool, res uint64) {
	so := rep.slotOff(s)
	if own {
		rep.ctrl.Store(t, so+slotState, slotEmpty)
		return
	}
	rep.ctrl.Store(t, so+slotResp, res)
	rep.ctrl.Store(t, so+slotState, slotDone)
}

// combine runs a session over rep's pending slots. The caller holds rep's
// combiner lock and has a pending op in mySlot. Returns the caller's result.
func (p *PREP) combine(t *sim.Thread, rep *replica, mySlot int) uint64 {
	f := rep.flusher // nil outside durable mode

	// Collect the batch: every pending slot on this node (or just ours under
	// the no-batching ablation). The scratch buffer is combiner-lock
	// protected, so reusing it allocates only on the first combine.
	batch := rep.batchScratch[:0]
	if p.cfg.NoBatching {
		batch = append(batch, mySlot)
	} else {
		for s := 0; s < int(p.beta); s++ {
			if rep.ctrl.Load(t, rep.slotOff(s)+slotState) == slotPending {
				batch = append(batch, s)
			}
		}
	}
	rep.batchScratch = batch // keep any growth for the next combiner
	num := uint64(len(batch))
	p.met.ObserveBatch(num)

	detect := false
	if p.desc != nil {
		for _, s := range batch {
			if rep.ctrl.Load(t, rep.slotOff(s)+slotInvid) != 0 {
				detect = true
				break
			}
		}
	}

	tail := p.reserveLogEntries(t, rep, num)
	for i, s := range batch {
		so := rep.slotOff(s)
		code := rep.ctrl.Load(t, so+slotCode)
		a0 := rep.ctrl.Load(t, so+slotA0)
		a1 := rep.ctrl.Load(t, so+slotA1)
		p.publishArgs(t, f, tail+uint64(i), code, a0, a1)
	}
	if !detect {
		p.raiseFullMarks(t, f, tail, num)
	}
	rep.writeLock(t)
	p.catchUp(t, rep, tail, f)
	if !detect {
		p.publishTail(t, rep, f, tail+num)
	}

	// Apply the batch in log order (the log is the source of truth). Legacy
	// order responds at once; detectable order buffers the results host-side
	// until persist-before-respond below.
	if detect && cap(rep.resScratch) < len(batch) {
		rep.resScratch = make([]uint64, p.beta)
	}
	var myRes uint64
	for i, s := range batch {
		code, a0, a1 := p.log.ReadEntry(t, tail+uint64(i))
		res := rep.ds.Execute(t, code, a0, a1)
		if s == mySlot {
			myRes = res
		}
		if !detect {
			rep.respond(t, s, s == mySlot, res)
			continue
		}
		rep.resScratch[i] = res
		if invid := rep.ctrl.Load(t, rep.slotOff(s)+slotInvid); invid != 0 {
			w := rep.node*int(p.beta) + s // slot owner's worker tid
			p.recordDescriptor(t, f, w, invid, tail+uint64(i), res)
		}
	}
	if detect {
		p.raiseFullMarks(t, f, tail, num)
		p.publishTail(t, rep, f, tail+num)
		for i, s := range batch {
			rep.respond(t, s, s == mySlot, rep.resScratch[i])
		}
	}
	rep.writeUnlock(t)
	return myRes
}
