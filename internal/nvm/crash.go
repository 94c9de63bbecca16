package nvm

import "prepuc/internal/sim"

// Recover materializes the machine's post-crash persistent state and returns
// a fresh System, attached to sch (nil: none until a phase runs), with only
// the NVM memories — each with its current view re-read from the persisted
// media. Volatile memories are gone; recovery code recreates them.
//
// Materialization applies the hardware's undefined behaviours:
//   - every line issued via FlushLine but not yet fenced is persisted
//     according to the installed fault.Policy — or, with no policy, with
//     probability 1/2 (independent coin flips, seeded);
//   - every merely-dirty line is lost (its last persisted value remains).
//
// The per-line outcomes are tallied in the metrics registry
// (crash_lines_persisted / crash_lines_dropped), and the policy is carried
// into the recovered system so an iterating adversary (fault.Targeted) keeps
// its sweep state across nested crashes.
//
// The recovered memories share the crashed machine's persisted pages
// copy-on-write, so materialization is O(pending lines + pages), not
// O(heap). With an empty pending set no line is touched at all — the policy
// still observes the (zero-length) crash so stateful adversaries advance —
// and lines_scanned_at_crash counts the lines actually examined.
//
// Recover must only be called after the crashed scheduler has fully drained
// (sim.Scheduler.Run returned).
func (s *System) Recover(sch *sim.Scheduler) *System {
	// Materialize unfenced asynchronous flushes. Pending lines are visited
	// in flusher-creation then issue order, which is deterministic, so a
	// policy's per-index decisions reproduce from the run's seed. A stateful
	// policy (fault.Targeted) sees every crash, an empty pending set included.
	policy := s.policy
	if policy == nil {
		policy = coin{s}
	}
	var total int
	for _, f := range s.flushers {
		total += len(f.pending)
	}
	s.met.LinesScannedAtCrash += uint64(total)
	policy.BeginCrash(total)
	i := 0
	for _, f := range s.flushers {
		for _, p := range f.pending {
			if policy.PersistPending(i) {
				p.m.persistLine(p.line)
				s.met.CrashLinesPersisted++
			} else {
				s.met.CrashLinesDropped++
			}
			i++
		}
		f.pending, f.seen, f.tracked = nil, nil, 0
	}
	ns := &System{
		sch:      sch,
		costs:    s.costs,
		mems:     make(map[string]*Memory),
		bgProb:   s.bgProb,
		rngState: s.nextRand() | 1,
		policy:   s.policy,
		elide:    s.elide,
		// The metrics registry survives the crash: counters are host-side
		// observability state, not machine state, and carrying it over lets a
		// crash harness see recovery-time replay work in the same snapshot
		// stream as pre-crash execution.
		met: s.met,
	}
	for _, m := range s.order {
		if m.kind != NVM {
			continue
		}
		lines := m.words / WordsPerLine
		nm := &Memory{
			name: m.name,
			kind: NVM,
			home: m.home,
			sys:  ns,
			// Both views re-read the persisted media: two COW references to
			// the crashed memory's persisted pages. Dirty, ownership and list
			// state is volatile and restarts empty (all-zero slabs alias the
			// zero pages; only their page tables are allocated).
			words:     m.words,
			data:      m.persisted.share(&ns.met.PagesCopied),
			persisted: m.persisted.share(&ns.met.PagesCopied),
			dstate:    newZeroSlab(zeroStates, lines, &ns.met.PagesCopied),
			owner:     newZeroSlab(zeroOwners, lines, &ns.met.PagesCopied),
			ownerNode: newZeroSlab(zeroOwners, lines, &ns.met.PagesCopied),
			bgState:   ns.nextRand() | 1,
		}
		ns.mems[nm.name] = nm
		ns.order = append(ns.order, nm)
	}
	return ns
}

// coin is the built-in fault policy, installed while none is set: each
// pending line persists on a fair coin drawn from the crashed system's seeded
// RNG.
type coin struct{ s *System }

func (coin) BeginCrash(int)            {}
func (c coin) PersistPending(int) bool { return c.s.nextRand()&1 == 0 }

// Clone snapshots the machine — every memory's current and persisted views,
// dirty and ownership state, pending flush sets, RNG states and a private
// copy of the metrics registry — attached to sch (nil as for Recover). Memory
// views are shared with the parent copy-on-write, so a clone costs O(page
// tables), not O(words); pages privatize as either machine writes. Crash-
// sweep harnesses use it to materialize the same frozen machine many times,
// arming a different crash point inside recovery on each copy, without
// re-running the workload that produced the state.
//
// Clone itself must not run concurrently with simulated access to the
// parent (it repacks the parent's views into shared pages), but the
// returned clone may then run on a different host goroutine than the parent
// and its siblings — the page reference counts are the only shared state.
func (s *System) Clone(sch *sim.Scheduler) *System {
	s.met.Clones++
	met := *s.met
	ns := &System{
		sch:      sch,
		costs:    s.costs,
		mems:     make(map[string]*Memory),
		bgProb:   s.bgProb,
		rngState: s.rngState,
		policy:   s.policy,
		elide:    s.elide,
		met:      &met,
	}
	for _, m := range s.order {
		nm := &Memory{
			name:      m.name,
			kind:      m.kind,
			home:      m.home,
			sys:       ns,
			words:     m.words,
			data:      m.data.share(&met.PagesCopied),
			owner:     m.owner.share(&met.PagesCopied),
			ownerNode: m.ownerNode.share(&met.PagesCopied),
			bgState:   m.bgState,
		}
		if m.kind == NVM {
			nm.persisted = m.persisted.share(&met.PagesCopied)
			nm.dstate = m.dstate.share(&met.PagesCopied)
			nm.dirtyList = append([]uint64(nil), m.dirtyList...)
		}
		ns.mems[nm.name] = nm
		ns.order = append(ns.order, nm)
	}
	for _, f := range s.flushers {
		nf := &Flusher{sys: ns}
		for _, p := range f.pending {
			nf.track(pendingFlush{ns.mems[p.m.name], p.line})
		}
		ns.flushers = append(ns.flushers, nf)
	}
	return ns
}
