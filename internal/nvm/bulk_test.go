package nvm

import (
	"testing"

	"prepuc/internal/sim"
)

func TestFlushRegionPersistsRange(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 256)
		for w := uint64(0); w < 256; w++ {
			m.Store(th, w, w+1)
		}
		m.FlushRegion(th, 16, 80)
		for w := uint64(0); w < 256; w++ {
			got := m.PersistedLoad(w)
			// Lines intersecting [16,80) cover words 16..79 exactly (both
			// bounds line-aligned here).
			if w >= 16 && w < 80 {
				if got != w+1 {
					t.Errorf("word %d = %d, want persisted", w, got)
				}
			} else if got != 0 {
				t.Errorf("word %d = %d, want untouched", w, got)
			}
		}
	})
}

func TestFlushRegionUnalignedCoversPartialLines(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		for w := uint64(0); w < 64; w++ {
			m.Store(th, w, w+1)
		}
		m.FlushRegion(th, 10, 13) // inside line 1
		for w := uint64(8); w < 16; w++ {
			if got := m.PersistedLoad(w); got != w+1 {
				t.Errorf("word %d of covering line not persisted", w)
			}
		}
		if got := m.PersistedLoad(0); got != 0 {
			t.Error("line 0 persisted unexpectedly")
		}
	})
}

func TestFlushRegionCostScalesWithLines(t *testing.T) {
	costs := sim.Costs{FlushLine: 10, Fence: 5, FencePerPending: 2}
	var small, large uint64
	runOne(t, Config{Costs: costs}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 4096)
		// Dirty the whole region so elision has nothing to skip: the scaling
		// under test is the per-written-back-line charge.
		for w := uint64(0); w < 4096; w += WordsPerLine {
			m.Store(th, w, w+1)
		}
		before := th.Clock()
		m.FlushRegion(th, 0, 8)
		small = th.Clock() - before
		// Re-dirty the line the small flush cleaned.
		m.Store(th, 0, 7)
		before = th.Clock()
		m.FlushRegion(th, 0, 4096)
		large = th.Clock() - before
	})
	if large <= small*10 {
		t.Errorf("512-line flush (%d) not much costlier than 1-line (%d)", large, small)
	}
}

func TestFlushRegionElidesCleanLines(t *testing.T) {
	costs := sim.Costs{FlushLine: 10, FlushCheck: 1, Fence: 5, FencePerPending: 2}
	runOne(t, Config{Costs: costs}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64) // 8 lines
		m.Store(th, 0, 1)                   // line 0 dirty
		m.Store(th, 40, 2)                  // line 5 dirty
		base := sys.Metrics().Snapshot()
		before := th.Clock()
		m.FlushRegion(th, 0, 64)
		cost := th.Clock() - before
		d := sys.Metrics().Snapshot().Sub(base)
		if d.FlushAsync != 2 || d.FlushesElided != 6 || d.FlushElisionChecks != 8 {
			t.Errorf("region flush: async=%d elided=%d checks=%d, want 2,6,8",
				d.FlushAsync, d.FlushesElided, d.FlushElisionChecks)
		}
		// 2 write-backs + 6 checks + fence + 8 per-pending (the fence drain
		// walks every region line, written back or not).
		if want := uint64(2*10 + 6*1 + 5 + 8*2); cost != want {
			t.Errorf("region flush cost = %d, want %d", cost, want)
		}
		if m.PersistedLoad(0) != 1 || m.PersistedLoad(40) != 2 {
			t.Error("dirty lines not persisted by region flush")
		}
	})
}

func TestFlushRegionEmptyRangeJustFences(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		fences := sys.Metrics().Snapshot().Fences
		m.FlushRegion(th, 10, 10)
		if sys.Metrics().Snapshot().Fences != fences+1 {
			t.Error("empty-range FlushRegion did not fence")
		}
	})
}

func TestFlushRegionClampsToMemoryEnd(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		m.Store(th, 63, 7)
		m.FlushRegion(th, 0, 10_000) // beyond end: clamped, no panic
		if got := m.PersistedLoad(63); got != 7 {
			t.Errorf("last word = %d, want 7", got)
		}
	})
}

func TestFlushAllDirtyPersistsExactlyDirty(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 512)
		m.Store(th, 0, 1)   // line 0
		m.Store(th, 100, 2) // line 12
		m.FlushAllDirty(th)
		if m.PersistedLoad(0) != 1 || m.PersistedLoad(100) != 2 {
			t.Error("dirty lines not persisted")
		}
		if m.DirtyLines() != 0 {
			t.Errorf("dirty lines = %d after FlushAllDirty", m.DirtyLines())
		}
	})
}

func TestFlushAllDirtyCheaperThanWBINVDWhenFewDirty(t *testing.T) {
	costs := sim.Costs{FlushLine: 40, Fence: 120, FencePerPending: 350,
		WBINVDBase: 150_000, WBINVDPerLine: 40}
	var perLine, wbinvd uint64
	runOne(t, Config{Costs: costs}, 0, func(th *sim.Thread, sys *System) {
		m1 := sys.NewMemory("m1", NVM, 0, 512)
		m1.Store(th, 0, 1)
		before := th.Clock()
		m1.FlushAllDirty(th)
		perLine = th.Clock() - before
		m2 := sys.NewMemory("m2", NVM, 0, 512)
		m2.Store(th, 0, 1)
		before = th.Clock()
		sys.WBINVD(th, m2)
		wbinvd = th.Clock() - before
	})
	if perLine >= wbinvd {
		t.Errorf("per-line flush (%d) not cheaper than WBINVD (%d) for one dirty line — the trade-off the paper discusses is inverted", perLine, wbinvd)
	}
}

func TestBulkFlushOnVolatilePanics(t *testing.T) {
	for _, name := range []string{"region", "alldirty"} {
		name := name
		sch := sim.New(1)
		sys := NewSystem(sch, Config{})
		m := sys.NewMemory("v", Volatile, 0, 64)
		panicked := false
		sch.Spawn("t", 0, 0, func(th *sim.Thread) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			if name == "region" {
				m.FlushRegion(th, 0, 8)
			} else {
				m.FlushAllDirty(th)
			}
		})
		sch.Run()
		if !panicked {
			t.Errorf("%s flush on volatile memory did not panic", name)
		}
	}
}
