package core

import (
	"prepuc/internal/locks"
	"prepuc/internal/sim"
)

// This file implements log-entry reuse: ReserveLogEntries with the
// flushBoundary gate (Algorithm 4) and UpdateOrWaitOnLogMin (Algorithm 3),
// including the anti-deadlock helping mechanisms of §5.1:
//
//   - a combiner blocked on a stale *persistent* replica pulls flushBoundary
//     down, forcing the persistence thread into a cycle that refreshes the
//     stable replica;
//   - a combiner blocked on a stale *volatile* replica raises that replica's
//     updateReplicaNow flag, which combiners on that node service while they
//     wait;
//   - additionally (an extension over the paper, which assumes every node
//     keeps executing operations) a combiner blocked long enough on a
//     quiescent node's replica updates it directly by taking that replica's
//     combiner and writer locks — preserving deadlock freedom even when a
//     node has gone idle.

// crossHelpRounds is how many rounds a combiner waits on a stale volatile
// replica before it tries to help it across nodes.
const crossHelpRounds = 64

// reserveLogEntries implements Algorithm 4: reserve num contiguous log
// entries, blocking while the flush boundary forbids growth (persistent
// modes only), then settle the reuse horizon before returning the start
// index.
func (p *PREP) reserveLogEntries(t *sim.Thread, rep *replica, num uint64) uint64 {
	var b sim.Backoff
	for {
		tail := p.log.LogTail(t)
		if p.cfg.Mode.Persistent() && p.flushBoundary(t) < tail {
			// Blocked until the stable persistent replica is up to date with
			// the boundary; keep our own replica from stalling the system
			// while we wait: a round that finds rep's updateReplicaNow flag
			// raised services it, then resumes at its backoff. The stall is
			// the price of checkpoint pacing, so its virtual duration is
			// accumulated for the bench output. The ladder runs on from the
			// lost CASes above.
			start := t.Clock()
			w := p.waits.Of(t)
			*w = locks.Wait{Mem: p.gctrl, Off: gFlushBoundary, Want: tail,
				Flag: rep.ctrl, FlagOff: ctrlUpdateNow, Cap: 4096, B: b}
			for t.Await(w); !w.Served; t.Await(w) {
				stall := *w // the service waits too
				p.serviceUpdateNow(t, rep)
				*w = stall
				w.Retry()
			}
			p.met.FlushBoundaryStallNS += t.Clock() - start
			b.Reset()
		}
		if p.log.CASLogTail(t, tail, tail+num) {
			p.updateOrWaitOnLogMin(t, rep, tail+num)
			return tail
		}
		t.Step(b.Next(256))
	}
}

// serviceUpdateNow brings rep up to date with completedTail: another combiner
// flagged it as the straggler blocking logMin. The caller holds rep's
// combiner lock.
func (p *PREP) serviceUpdateNow(t *sim.Thread, rep *replica) {
	p.met.UpdateNowServices++
	rep.writeLock(t)
	p.catchUp(t, rep, p.log.CompletedTail(t), nil)
	rep.writeUnlock(t)
	rep.setUpdateNow(t, 0)
}

// updateOrWaitOnLogMin implements Algorithm 3. Having reserved entries up
// to newTail, the combiner may not write them until newTail is at most
// logMin − β; it advances logMin past applied entries, and when it cannot —
// because some replica's localTail pins the horizon — it arranges for that
// replica to catch up.
func (p *PREP) updateOrWaitOnLogMin(t *sim.Thread, rep *replica, newTail uint64) {
	lowMark := p.log.LogMin(t) - p.beta
	var b sim.Backoff
	for lowMark < newTail {
		// Scan the localTails of every replica: N volatile plus the
		// persistent ones (the paper's "replicas + p_replicas").
		lowest := ^uint64(0)
		stragVol, stragP := -1, -1
		for i, r := range p.reps {
			if lt := r.localTail(t); lt < lowest {
				lowest, stragVol, stragP = lt, i, -1
			}
		}
		for i := range p.preps {
			if lt := p.pTail(t, i); lt < lowest {
				lowest, stragVol, stragP = lt, -1, i
			}
		}
		logMin := p.log.LogMin(t)
		if lowest+p.cfg.LogSize-1 <= logMin {
			// The straggler pins logMin; make it advance.
			switch {
			case stragP >= 0:
				// A persistent replica. If it is the stable one, only a
				// persistence cycle (WBINVD + swap) lets it catch up: pull
				// the flush boundary down to trigger one (§5.1). The paper
				// reduces to lowMark−1, but completedTail can be frozen
				// below that (every other combiner is queued behind our
				// still-unwritten reserved entries), in which case the
				// persistence thread would never see flushBoundary ≤
				// completedTail — so we reduce to whichever is smaller.
				if uint64(stragP) != p.activeP(t) {
					target := lowMark - 1
					if ct := p.log.CompletedTail(t); ct < target {
						target = ct
					}
					if p.flushBoundary(t) > target {
						p.setFlushBoundary(t, target)
						p.met.BoundaryReductions++
					}
				}
				t.Step(b.Next(4096))
			case stragVol == rep.node:
				// We are the straggler: catch up ourselves (we already hold
				// our combiner lock).
				rep.writeLock(t)
				p.catchUp(t, rep, p.log.CompletedTail(t), nil)
				rep.writeUnlock(t)
			default:
				straggler := p.reps[stragVol]
				straggler.setUpdateNow(t, 1)
				// Wait for the straggler's localTail to move. The wait ends on
				// its own every crossHelpRounds rounds, so it never parks: the
				// node may be quiescent, and then we help it directly.
				var wb sim.Backoff
				for {
					w := p.waits.Of(t)
					*w = locks.Wait{Mem: straggler.ctrl, Off: ctrlLocalTail, Want: lowest + 1,
						Cap: 2048, Rounds: crossHelpRounds, B: wb}
					if t.Await(w); w.Served {
						break
					}
					wb = w.B
					if straggler.combiner.TryAcquire(t) {
						straggler.writeLock(t)
						p.catchUp(t, straggler, p.log.CompletedTail(t), nil)
						straggler.writeUnlock(t)
						straggler.combiner.Release(t)
						p.met.CrossNodeHelps++
					}
				}
				straggler.setUpdateNow(t, 0)
			}
			continue
		}
		p.log.AdvanceLogMin(t, lowest+p.cfg.LogSize-1)
		lowMark = p.log.LogMin(t) - p.beta
		b.Reset()
	}
}
