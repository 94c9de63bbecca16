package cxpuc

import (
	"fmt"

	"prepuc/internal/locks"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// enqueue appends op to the global queue and returns its 1-based
// linearization index.
func (cx *CX) enqueue(t *sim.Thread, op uc.Op) uint64 {
	var b sim.Backoff
	for {
		tail := cx.ctrl.Load(t, ctrlQTail)
		if tail >= cx.cfg.QueueCapacity {
			panic(fmt.Sprintf("cxpuc: operation queue capacity %d exceeded; size the run accordingly",
				cx.cfg.QueueCapacity))
		}
		if cx.ctrl.CAS(t, ctrlQTail, tail, tail+1) {
			off := tail * nvm.WordsPerLine
			cx.queue.Store(t, off+qeCode, op.Code)
			cx.queue.Store(t, off+qeA0, op.A0)
			cx.queue.Store(t, off+qeA1, op.A1)
			cx.queue.Store(t, off+qeState, 1) // ready
			return tail + 1
		}
		t.Step(b.Next(2048))
	}
}

// readQueued fetches the i-th (1-based) update, waiting until it is ready.
func (cx *CX) readQueued(t *sim.Thread, i uint64) (code, a0, a1 uint64) {
	off := (i - 1) * nvm.WordsPerLine
	w := cx.waits.Of(t)
	*w = locks.Wait{Mem: cx.queue, Off: off + qeState, Want: 1, Cap: 2048}
	t.Await(w)
	return cx.queue.Load(t, off+qeCode), cx.queue.Load(t, off+qeA0), cx.queue.Load(t, off+qeA1)
}

// latest decodes the published (applied index, replica id) pair.
func (cx *CX) latest(t *sim.Thread) (applied uint64, rep int) {
	w := cx.meta.Load(t, metaLatest)
	return w >> 8, int(w & 0xFF)
}

// publish CASes the published pointer forward and persists it.
func (cx *CX) publish(t *sim.Thread, applied uint64, rep int) {
	newW := applied<<8 | uint64(rep)
	for {
		w := cx.meta.Load(t, metaLatest)
		if w>>8 >= applied {
			return // someone published a newer state
		}
		if cx.meta.CAS(t, metaLatest, w, newW) {
			cx.flush.FlushLineSync(t, cx.meta, metaLatest)
			return
		}
	}
}

// Execute implements the universal construction interface.
func (cx *CX) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	t.Step(cx.sys.Costs().OpBase)
	if cx.reps[0].ds.IsReadOnly(op.Code) {
		return cx.read(t, op)
	}
	return cx.updateOp(t, op)
}

// read executes a read-only operation on the currently published replica
// under its shared try-lock.
func (cx *CX) read(t *sim.Thread, op uc.Op) uint64 {
	var b sim.Backoff
	for {
		_, repID := cx.latest(t)
		r := cx.reps[repID]
		if r.lock.TryReadLock(t) {
			// Confirm the replica is still the published one (a writer may
			// have republished while we raced to the lock).
			if _, cur := cx.latest(t); cur == repID {
				res := r.ds.Execute(t, op.Code, op.A0, op.A1)
				r.lock.ReadUnlock(t)
				return res
			}
			r.lock.ReadUnlock(t)
		}
		t.Step(b.Next(2048))
	}
}

// updateOp enqueues the update, then locks some non-published replica,
// brings it up to date through the new operation, flushes the whole replica,
// and publishes it.
func (cx *CX) updateOp(t *sim.Thread, op uc.Op) uint64 {
	myIdx := cx.enqueue(t, op)
	var b sim.Backoff
	for {
		// Fast path: someone already applied (and durably published) our op.
		applied, _ := cx.latest(t)
		if applied >= myIdx {
			// CX-PUC returns the response computed when the op was applied;
			// our queue keeps responses alongside entries. The wait's ladder
			// runs on from the retries below.
			off := (myIdx - 1) * nvm.WordsPerLine
			w := cx.waits.Of(t)
			*w = locks.Wait{Mem: cx.queue, Off: off + qeState, Want: 2, Cap: 2048, B: b}
			t.Await(w)
			return cx.queue.Load(t, off+4)
		}
		_, published := cx.latest(t)
		for i := range cx.reps {
			if i == published {
				continue // never dirty the replica recovery would use
			}
			r := cx.reps[i]
			if !r.lock.TryWriteLock(t) {
				continue
			}
			applied, pub := cx.latest(t)
			if pub == i {
				// The replica was published while we raced to its lock;
				// dirtying it would corrupt the recovery point.
				r.lock.WriteUnlock(t)
				continue
			}
			if applied >= myIdx {
				r.lock.WriteUnlock(t)
				break
			}
			res := cx.applyThrough(t, r, myIdx)
			r.lock.WriteUnlock(t)
			return res
		}
		t.Step(b.Next(2048))
	}
}

// applyThrough applies queue entries (r.applied, upTo] to r, persists the
// whole replica, and publishes it. Returns the response of entry upTo.
// Caller holds r's write lock.
func (cx *CX) applyThrough(t *sim.Thread, r *cxReplica, upTo uint64) uint64 {
	var last uint64
	for i := r.applied + 1; i <= upTo; i++ {
		code, a0, a1 := cx.readQueued(t, i)
		res := r.ds.Execute(t, code, a0, a1)
		// Record the response so the invoking thread can pick it up.
		off := (i - 1) * nvm.WordsPerLine
		cx.queue.Store(t, off+4, res)
		cx.queue.Store(t, off+qeState, 2)
		last = res
	}
	r.applied = upTo
	r.alloc.SetRoot(t, appliedRootSlot, upTo)
	// The defining cost of CX-PUC: persist the ENTIRE replica after the
	// update batch, because a black box gives no way to know what changed.
	// The instruction stream stays whole-region; the substrate's FliT-style
	// clean-line check (DESIGN.md §12) write-backs only the lines actually
	// dirtied since the last flush and prices the rest as state checks —
	// CX-PUC is the construction that benefits most from it.
	r.heap.FlushRegion(t, 0, r.alloc.HeapTop(t))
	cx.publish(t, upTo, r.id)
	return last
}

// Prefill applies ops directly to every replica before measurement and
// persists the published one. The ops are replayed once, into replica 0,
// while nvm.Memory.Mirror applies every access to the other replica heaps
// too, so each ends exactly as a replay into it would leave it (DESIGN.md §7,
// "Prefill by mirror").
func (cx *CX) Prefill(t *sim.Thread, ops []uc.Op) {
	r0 := cx.reps[0]
	dsts := make([]*nvm.Memory, 0, len(cx.reps)-1)
	for _, r := range cx.reps[1:] {
		dsts = append(dsts, r.heap)
	}
	r0.heap.Mirror(t, dsts...)
	for _, op := range ops {
		r0.ds.Execute(t, op.Code, op.A0, op.A1)
	}
	r0.heap.Release(t)
	r0.heap.FlushRegion(t, 0, r0.alloc.HeapTop(t))
	cx.flush.FlushLineSync(t, cx.meta, metaLatest)
}

// Recover rebuilds a CX-PUC instance from NVM after a crash: the committed
// generation's published replica (its heap was fully flushed before
// publication) seeds every replica of a fresh generation. cfg is the
// configuration the crashed lineage was booted with.
//
// Recover is re-entrant: the new generation's commit record flips only after
// its replica 0 and meta are persisted, so a crash at any event inside
// Recover leaves the previous committed generation as the source for the
// next attempt.
func Recover(t *sim.Thread, recSys *nvm.System, cfg Config) (*CX, error) {
	src, err := lineage.Source(recSys)
	if err != nil {
		return nil, err
	}
	meta := recSys.Memory(src.Name("meta"))
	w := meta.Load(t, metaLatest)
	repID := int(w & 0xFF)
	heap := recSys.Memory(src.Name(fmt.Sprintf("rep%d", repID)))
	alloc := pmem.Attach(t, heap)
	sds := cfg.Object.Attach(t, alloc)

	cx, err := newEngine(t, recSys, cfg, src.Next(recSys))
	if err != nil {
		return nil, err
	}
	for _, r := range cx.reps {
		uc.Clone(t, sds, r.ds)
	}
	r0 := cx.reps[0]
	r0.heap.FlushRegion(t, 0, r0.alloc.HeapTop(t))
	cx.flush.FlushLineSync(t, cx.meta, metaLatest)
	cx.lin.Commit(t)
	return cx, nil
}

// DumpState returns replica 0's state as the flat (code, a0, a1) triples its
// Dump emits. Tests compare dumps across recovery attempts for idempotence.
func (cx *CX) DumpState(t *sim.Thread) []uint64 {
	var out []uint64
	cx.reps[0].ds.Dump(t, func(code, a0, a1 uint64) {
		out = append(out, code, a0, a1)
	})
	return out
}
