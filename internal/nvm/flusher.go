package nvm

import (
	"slices"

	"prepuc/internal/sim"
)

// pendingFlush identifies one line awaiting a fence.
type pendingFlush struct {
	m    *Memory
	line uint64
}

// Flusher models one hardware thread's view of in-flight asynchronous
// write-backs. CLWB/CLFLUSHOPT order only against a subsequent SFENCE on the
// same thread, so each simulated thread owns a Flusher; lines it has flushed
// but not fenced are in an undefined persistence state if a crash hits.
//
// A line already tracked in the current fence epoch is not tracked again
// (FliT-style dedup). The epoch's lines are pending; an epoch of at most
// scanMax lines is searched by a scan of pending, and a longer one is also
// indexed in seen, which is then exactly the set of lines in pending. Fence
// empties both, so the bookkeeping is as large as the epoch, never as the run.
type Flusher struct {
	sys     *System
	pending []pendingFlush
	seen    map[pendingFlush]struct{}
	tracked int // lines entered in seen this epoch, dropped ones included; 0: not indexed
}

const (
	// scanMax is the longest epoch that has searches scan pending (most
	// epochs are a few lines: one log entry and its full marks).
	scanMax = 16
	// seenKeep is the most lines an epoch may enter in seen for Fence to
	// keep the map (a serve batch of 32 operations tracks up to about 128).
	// Emptying a map with clear costs its capacity, not its size, and a map
	// never shrinks, so after an epoch that entered more (a catch-up can
	// flush thousands of lines at once) Fence drops the map.
	seenKeep = 256
)

// NewFlusher creates a per-thread flusher registered for crash accounting.
func (s *System) NewFlusher() *Flusher {
	f := &Flusher{sys: s, pending: make([]pendingFlush, 0, 32)}
	s.flushers = append(s.flushers, f)
	return f
}

// has reports whether p is tracked in the current epoch.
func (f *Flusher) has(p pendingFlush) bool {
	if f.tracked == 0 {
		return slices.Contains(f.pending, p)
	}
	_, ok := f.seen[p]
	return ok
}

// track adds p to the current epoch, indexing the epoch once it outgrows a
// scan.
func (f *Flusher) track(p pendingFlush) {
	f.pending = append(f.pending, p)
	switch {
	case f.tracked != 0:
		f.seen[p] = struct{}{}
		f.tracked++
	case len(f.pending) > scanMax:
		if f.seen == nil {
			f.seen = make(map[pendingFlush]struct{}, 2*scanMax)
		}
		for _, q := range f.pending {
			f.seen[q] = struct{}{}
		}
		f.tracked = len(f.pending)
	}
}

// FlushLine issues an asynchronous write-back (CLWB) of the line containing
// off. The line is not persisted until the next Fence — or, at a crash,
// according to the installed fault policy.
//
// The flush samples the line's dirty state at issue (before the cost step
// yields) in both elision modes: a clean line never enters the pending set —
// a CLWB of a clean line writes back nothing, and a store issued after it is
// NOT covered by it — and a line already tracked this fence epoch is not
// tracked again. A line that is dirty but pending only on *another* thread's
// flusher is still tracked here: the other thread's flush persists only at
// that thread's fence. With elision on, the skipped cases charge just
// Costs.FlushCheck (the FliT-style per-line state lookup) instead of a full
// FlushLine, and are tallied as FlushesElided; with elision off the full
// FlushLine cost and FlushAsync count apply regardless. The pending sets are
// identical in both modes, so crash materialization draws the same policy
// sequence and the persisted views are byte-identical.
func (f *Flusher) FlushLine(t *sim.Thread, m *Memory, off uint64) {
	if m.kind != NVM {
		panic("nvm: FlushLine on volatile memory " + m.name)
	}
	m.settle(t)
	line := off / WordsPerLine
	p := pendingFlush{m, line}
	track := m.dstate.load(line)&lineDirty != 0 && !f.has(p)
	m.announce(t, AccFlush, line, track)
	if f.sys.elide {
		f.sys.met.FlushElisionChecks++
		if !track {
			t.Step(f.sys.costs.FlushCheck)
			f.sys.met.FlushesElided++
			return
		}
	}
	t.Step(f.sys.costs.FlushLine)
	f.sys.met.FlushAsync++
	if !track {
		return
	}
	f.track(p)
}

// FlushLineSync executes a blocking flush (CLFLUSH) of the line containing
// off; the line is persisted before FlushLineSync returns. Like FlushLine it
// samples the dirty state at issue: a clean line's write-back is skipped in
// both modes (it is a state no-op), charged as FlushCheck with elision on
// and as a full FlushSync with elision off. In either case the line's own
// pending entry, if any, is retired — the line is persisted *now*, so
// draining it again at the next fence would double-persist it and inflate
// the fence's FencePerPending charge.
func (f *Flusher) FlushLineSync(t *sim.Thread, m *Memory, off uint64) {
	if m.kind != NVM {
		panic("nvm: FlushLineSync on volatile memory " + m.name)
	}
	m.settle(t)
	line := off / WordsPerLine
	p := pendingFlush{m, line}
	dirty := m.dstate.load(line)&lineDirty != 0
	m.announce(t, AccFlushSync, line, false)
	if f.sys.elide && !dirty {
		f.sys.met.FlushElisionChecks++
		t.Step(f.sys.costs.FlushCheck)
		f.sys.met.FlushesElided++
		f.dropPending(p)
		return
	}
	if f.sys.elide {
		f.sys.met.FlushElisionChecks++
	}
	t.Step(f.sys.costs.FlushSync)
	f.sys.met.FlushSync++
	if dirty {
		m.persistLine(line)
	}
	f.dropPending(p)
}

// dropPending retires the line's pending entry on this flusher (if any)
// after a synchronous flush, preserving the issue order of the remaining
// entries. The epoch-dedup mark is removed too, so a store followed by a
// FlushLine of the same line later in this fence epoch is tracked afresh.
func (f *Flusher) dropPending(p pendingFlush) {
	if !f.has(p) {
		return
	}
	if f.tracked != 0 {
		delete(f.seen, p)
	}
	i := slices.Index(f.pending, p)
	f.pending = slices.Delete(f.pending, i, i+1)
}

// Fence executes an SFENCE: every line previously issued through FlushLine
// on this flusher is persisted before Fence returns.
func (f *Flusher) Fence(t *sim.Thread) {
	t.Settle()
	f.sys.announce(Access{Thread: t.ID(), Kind: AccFence, Mem: "", Line: NoLine, NVM: true})
	n := uint64(len(f.pending))
	t.Step(f.sys.costs.Fence + f.sys.costs.FencePerPending*n)
	f.sys.met.Fences++
	for _, p := range f.pending {
		p.m.persistLine(p.line)
	}
	f.pending = f.pending[:0]
	switch {
	case f.tracked > seenKeep:
		f.seen = nil
	case f.tracked != 0:
		clear(f.seen)
	}
	f.tracked = 0
}
