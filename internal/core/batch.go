package core

import (
	"prepuc/internal/locks"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// This file is the engine half of the async submission path (internal/svc):
// ExecuteBatch lets one caller — typically a ring consumer draining a
// submission queue — push a whole batch of operations through the combiner
// protocol in a single handoff, and AwaitDurable turns the durability mark
// ExecuteBatch returns into an explicit persistence barrier, decoupling
// completion from durability in the style of delay-free persistent objects.

// MaxBatch is the largest batch ExecuteBatch accepts. It must stay well
// below LogSize − β: a batch reserves all its log entries at once, and a
// reservation larger than the reuse window (logMin − β ahead of the tail)
// could never be granted.
const MaxBatch = 64

// ExecuteBatch runs ops in submitted order on behalf of worker tid, writing
// each operation's result to the corresponding res element. The whole batch
// becomes one combiner session: one combiner-lock acquisition, one logTail
// CAS covering every update in the batch, one write-lock catch-up — the
// per-op contention cost of Execute amortized over len(ops).
//
// The returned mark is the log index one past the batch's last update (0 for
// a pure-read batch): passing it to AwaitDurable blocks until every update
// in the batch is persistent. In Durable mode the mark is already durable on
// return (completedTail is persisted before any response, as in Execute); in
// Buffered mode up to ε+MaxBatch−1 completed operations may still be lost to
// a crash, the paper's ε+β−1 bound with the batch standing in for the β
// combining slots.
//
// Read-only operations never get descriptors — re-executing a read after a
// crash is always legal, so their post-crash verdict is simply "never
// applied, resubmit". Every descriptor of the batch lands in worker tid's
// slot region; at most one batch of at most MaxBatch = DescSlots operations
// is outstanding per tid, so an unacknowledged descriptor is never
// overwritten.
//
// len(res) must be at least len(ops), and len(ops) at most MaxBatch.
func (p *PREP) ExecuteBatch(t *sim.Thread, tid int, ops []uc.Op, res []uint64) uint64 {
	if len(ops) == 0 {
		return 0
	}
	if len(ops) > MaxBatch {
		panic("core: ExecuteBatch batch exceeds MaxBatch")
	}
	if len(res) < len(ops) {
		panic("core: ExecuteBatch result slice shorter than the batch")
	}
	rep := p.reps[p.cfg.Topology.NodeOf(tid)]
	f := rep.flusher // nil outside durable mode

	num := uint64(0)
	detect := false
	for _, op := range ops {
		if !rep.ds.IsReadOnly(op.Code) {
			num++
			if op.Invid != 0 && p.desc != nil {
				detect = true
			}
		}
	}
	p.met.RingBatches++
	p.met.RingBatchedOps += uint64(len(ops))

	// Become the node's combiner. Unlike update() there is no batch slot to
	// park the ops in, so this blocks rather than waiting for service.
	rep.combiner.Acquire(t, p.waits.Of(t), 1024)

	// The session of session.go over the batch's updates, in submitted order.
	var tail, newTail uint64
	if num > 0 {
		p.met.ObserveBatch(num)
		tail = p.reserveLogEntries(t, rep, num)
		newTail = tail + num
		idx := tail
		for _, op := range ops {
			if !rep.ds.IsReadOnly(op.Code) {
				p.publishArgs(t, f, idx, op.Code, op.A0, op.A1)
				idx++
			}
		}
		if !detect {
			p.raiseFullMarks(t, f, tail, num)
		}
	} else {
		// Pure-read batch: no reservation, just read at the current frontier.
		newTail = p.log.CompletedTail(t)
	}
	rep.writeLock(t)
	p.catchUp(t, rep, tail, f)
	switch {
	case detect: // the marks go up after the batch's descriptors, below
	case num > 0:
		p.publishTail(t, rep, f, newTail)
	case rep.localTail(t) < newTail:
		p.catchUp(t, rep, newTail, nil)
	}

	// Execute the batch in submitted order: updates replay from their log
	// entries (the log is the source of truth, exactly as in combine) and, in
	// detectable order, record their descriptors; reads run directly against
	// the caught-up replica and see every earlier update of their own batch.
	idx := tail
	for j, op := range ops {
		t.Step(p.sys.Costs().OpBase)
		if rep.ds.IsReadOnly(op.Code) {
			p.met.Reads++
			res[j] = rep.ds.Execute(t, op.Code, op.A0, op.A1)
			continue
		}
		p.met.Updates++
		code, a0, a1 := p.log.ReadEntry(t, idx)
		res[j] = rep.ds.Execute(t, code, a0, a1)
		if detect && op.Invid != 0 {
			p.recordDescriptor(t, f, tid, op.Invid, idx, res[j])
		}
		idx++
	}
	if detect {
		p.raiseFullMarks(t, f, tail, num)
		p.publishTail(t, rep, f, newTail)
	}
	rep.writeUnlock(t)
	rep.combiner.Release(t)
	if num == 0 {
		return 0
	}
	return newTail
}

// awaitDurableHelpSpins is how many backoff spins AwaitDurable waits before
// pulling the flush boundary down to force a persistence cycle.
const awaitDurableHelpSpins = 16

// AwaitDurable blocks until every update covered by mark (a return value of
// ExecuteBatch) is durable, i.e. would survive a crash at any later instant.
//
// In Durable mode this is a no-op beyond a sanity check: ExecuteBatch
// persisted completedTail past mark before returning (persist-before-respond,
// §4.1). In Buffered mode the caller waits until the *stable* persistent
// replica has checkpointed past mark; if the persistence thread is pacing
// itself on a distant flush boundary, the waiter pulls the boundary down to
// completedTail — the same §5.1 helping mechanism combiners use — to force a
// cycle rather than wait out the full ε window. The persistence thread must
// be running or the wait cannot terminate.
//
// With the SinglePReplica ablation there is no stable replica: the wait
// tracks the lone replica's applied tail, which runs ahead of its last
// checkpoint, so the barrier is advisory only under that configuration.
func (p *PREP) AwaitDurable(t *sim.Thread, mark uint64) {
	if mark == 0 || !p.cfg.Mode.Persistent() {
		return
	}
	if p.cfg.Mode == Durable {
		w := p.waits.Of(t)
		*w = locks.Wait{Mem: p.log.Mem(), Off: p.log.CompletedTailOff(), Want: mark, Cap: 512}
		t.Await(w)
		return
	}
	stable := func() int {
		if len(p.preps) == 2 {
			return 1 - int(p.activeP(t))
		}
		return 0
	}
	var b sim.Backoff
	spins := 0
	for p.pTail(t, stable()) < mark {
		spins++
		if spins%awaitDurableHelpSpins == 0 {
			if ct := p.log.CompletedTail(t); p.flushBoundary(t) > ct {
				p.setFlushBoundary(t, ct)
				p.met.BoundaryReductions++
			}
		}
		t.Step(b.Next(4096))
	}
}
