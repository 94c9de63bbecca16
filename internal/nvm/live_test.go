package nvm

import (
	"testing"

	"prepuc/internal/sim"
)

// This file pins that the substrate's host bookkeeping is sized by what is
// live, not by what a run has ever touched: a flusher's dedup set holds the
// current fence epoch only, and a memory's dirty list the lines dirty now.

// TestFlusherSetHoldsOneEpoch fences 50 000 distinct lines, one per epoch,
// then 50 000 more in epochs long enough to be indexed (scanMax < 40 <=
// seenKeep), and requires neither pass to allocate: a set that kept every
// line ever flushed would grow through both. The lines' pages are privatized
// beforehand by stores and a WBINVD, which never touch a flusher, and
// AllocsPerRun's warm-up call takes a second, disjoint range of lines.
func TestFlusherSetHoldsOneEpoch(t *testing.T) {
	const lines = 50_000
	runOne(t, Config{Costs: sim.UnitCosts()}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 2*lines*WordsPerLine)
		for line := uint64(0); line < 2*lines; line++ {
			m.Store(th, line*WordsPerLine, 1)
		}
		sys.WBINVD(th, m)
		for _, epoch := range []uint64{1, 40} {
			f := sys.NewFlusher()
			next := uint64(0)
			allocs := testing.AllocsPerRun(1, func() {
				for end := next + lines; next < end; next++ {
					off := next * WordsPerLine
					m.Store(th, off, next)
					f.FlushLine(th, m, off)
					if next%epoch == epoch-1 {
						f.Fence(th)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%d-line epochs over %d lines allocated %.0f times, want 0", epoch, lines, allocs)
			}
			if len(f.seen) != 0 || len(f.pending) != 0 {
				t.Errorf("%d-line epochs: after the last fence, %d seen and %d pending, want 0 and 0",
					epoch, len(f.seen), len(f.pending))
			}
		}

		// One oversized epoch: its index is dropped at the fence, not kept,
		// and the next epoch's set holds that epoch's line alone.
		f := sys.NewFlusher()
		const big = 10_000
		for line := uint64(0); line < big; line++ {
			m.Store(th, line*WordsPerLine, 2)
			f.FlushLine(th, m, line*WordsPerLine)
		}
		if len(f.seen) != big || len(f.pending) != big {
			t.Fatalf("a %d-line epoch tracked %d lines, indexed %d", big, len(f.pending), len(f.seen))
		}
		f.Fence(th)
		if f.seen != nil {
			t.Errorf("the fence kept the index of a %d-line epoch", big)
		}
		m.Store(th, big*WordsPerLine, 3)
		f.FlushLine(th, m, big*WordsPerLine)
		if len(f.pending) != 1 || len(f.seen) != 0 {
			t.Errorf("a one-line epoch after a %d-line one: %d pending, %d indexed, want 1 and 0", big, len(f.pending), len(f.seen))
		}
		if !m.linePending(big) || m.linePending(big-1) {
			t.Error("linePending disagrees with the current epoch")
		}
	})
}

// TestDirtyListBoundedByLiveLines runs a durable-style loop over 50 000
// distinct lines, which persists each line one by one and never sweeps, with
// a window of lines dirty at once. The dirty list must stay within twice the
// peak number of dirty lines plus a constant, not grow with the lines the
// loop has passed.
func TestDirtyListBoundedByLiveLines(t *testing.T) {
	const (
		lines  = 50_000
		window = 40
	)
	runOne(t, Config{Costs: sim.UnitCosts()}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, lines*WordsPerLine)
		f := sys.NewFlusher()
		longest := 0
		for line := uint64(0); line < lines; line++ {
			m.Store(th, line*WordsPerLine, line+1)
			if line >= window {
				old := (line - window) * WordsPerLine
				if line%2 == 0 {
					f.FlushLine(th, m, old)
					f.Fence(th)
				} else {
					f.FlushLineSync(th, m, old)
				}
			}
			longest = max(longest, len(m.dirtyList))
		}
		if peak := window + 1; longest > 2*peak+8 {
			t.Errorf("dirty list reached %d entries with at most %d lines dirty", longest, peak)
		}
		if got := m.DirtyLines(); got != window {
			t.Errorf("DirtyLines = %d, want %d", got, window)
		}
		sys.WBINVD(th, m)
		for line := uint64(0); line < lines; line++ {
			if got := m.PersistedLoad(line * WordsPerLine); got != line+1 {
				t.Fatalf("line %d persisted %d, want %d", line, got, line+1)
			}
		}
	})
}

// TestCompactionPrivatizesNothing compacts a clone's dirty list whose stale
// entries lie on dstate pages the clone still shares with its parent. Their
// listed bits cannot be cleared without copying those pages, so those entries
// stay and the pages stay shared; the stale entries on a page the clone has
// privatized by its own store are dropped.
func TestCompactionPrivatizesNothing(t *testing.T) {
	const stale = 3 * pageWords // lines on the first three dstate pages
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
	m := sys.NewMemory("m", NVM, 0, 8*pageWords*WordsPerLine)
	sch.Spawn("parent", 0, 0, func(th *sim.Thread) {
		for line := uint64(0); line < stale; line++ {
			m.Store(th, line*WordsPerLine, 1)
		}
		for line := uint64(0); line < stale; line++ {
			m.persistLine(line)
		}
	})
	sch.Run()

	c := sys.Clone(sim.New(2))
	cm := c.Memory("m")
	const redirtied = 5
	c.Scheduler().Spawn("clone", 0, 0, func(th *sim.Thread) {
		cm.Store(th, redirtied*WordsPerLine, 2) // privatizes dstate page 0
		for line := uint64(stale); line < stale+2*pageWords; line++ {
			cm.Store(th, line*WordsPerLine, 2)
		}
	})
	c.Scheduler().Run()

	for pi := 1; pi < 3; pi++ {
		if cm.dstate.pages[pi] != m.dstate.pages[pi] {
			t.Errorf("dstate page %d was privatized, though the clone stored to none of its lines", pi)
		}
	}
	onPage0, shared := 0, 0
	for _, line := range cm.dirtyList {
		switch {
		case line < pageWords:
			onPage0++
		case line < stale:
			shared++
		}
	}
	if onPage0 != 1 || shared != 2*pageWords {
		t.Errorf("after compaction: %d entries on the private page (want 1, the re-dirtied line), %d on shared pages (want %d)",
			onPage0, shared, 2*pageWords)
	}
}
