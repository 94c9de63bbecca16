package nvm

import (
	"testing"

	"prepuc/internal/sim"
)

// runOne executes fn on a single simulated thread pinned to node.
func runOne(t *testing.T, cfg Config, node int, fn func(*sim.Thread, *System)) {
	t.Helper()
	sch := sim.New(1)
	sys := NewSystem(sch, cfg)
	sch.Spawn("t", node, 0, func(th *sim.Thread) { fn(th, sys) })
	sch.Run()
}

func TestStoreLoadRoundTrip(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", Volatile, 0, 64)
		m.Store(th, 5, 42)
		if got := m.Load(th, 5); got != 42 {
			t.Errorf("Load = %d, want 42", got)
		}
	})
}

func TestCASSemantics(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", Volatile, 0, 64)
		m.Store(th, 0, 10)
		if m.CAS(th, 0, 11, 20) {
			t.Error("CAS with wrong expected value succeeded")
		}
		if !m.CAS(th, 0, 10, 20) {
			t.Error("CAS with right expected value failed")
		}
		if got := m.Load(th, 0); got != 20 {
			t.Errorf("after CAS, Load = %d, want 20", got)
		}
	})
}

func TestUnflushedStoreNotPersisted(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		m.Store(th, 3, 77)
		if got := m.PersistedLoad(3); got != 0 {
			t.Errorf("persisted view = %d before any flush, want 0", got)
		}
	})
}

func TestFlushLineRequiresFence(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 3, 77)
		f.FlushLine(th, m, 3)
		if got := m.PersistedLoad(3); got != 0 {
			t.Errorf("persisted = %d after unfenced CLWB, want 0", got)
		}
		f.Fence(th)
		if got := m.PersistedLoad(3); got != 77 {
			t.Errorf("persisted = %d after fence, want 77", got)
		}
	})
}

func TestFlushLineSyncPersistsImmediately(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 9, 5)
		f.FlushLineSync(th, m, 9)
		if got := m.PersistedLoad(9); got != 5 {
			t.Errorf("persisted = %d after CLFLUSH, want 5", got)
		}
	})
}

func TestFlushWholeLine(t *testing.T) {
	// Flushing any word of a line persists the whole line.
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		for w := uint64(8); w < 16; w++ {
			m.Store(th, w, w*10)
		}
		f.FlushLineSync(th, m, 8) // first word of line 1
		for w := uint64(8); w < 16; w++ {
			if got := m.PersistedLoad(w); got != w*10 {
				t.Errorf("word %d persisted = %d, want %d", w, got, w*10)
			}
		}
	})
}

func TestFlushDeduplicatesPendingLines(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 0, 1)
		f.FlushLine(th, m, 0)
		f.FlushLine(th, m, 3) // same line (words 0..7)
		if len(f.pending) != 1 {
			t.Errorf("pending = %d, want 1 (same line deduped)", len(f.pending))
		}
	})
}

func TestWBINVDWritesBackAllDirty(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 1024)
		for w := uint64(0); w < 1024; w += 17 {
			m.Store(th, w, w+1)
		}
		if m.DirtyLines() == 0 {
			t.Fatal("expected dirty lines before WBINVD")
		}
		sys.WBINVD(th, m)
		if m.DirtyLines() != 0 {
			t.Errorf("dirty lines = %d after WBINVD, want 0", m.DirtyLines())
		}
		for w := uint64(0); w < 1024; w += 17 {
			if got := m.PersistedLoad(w); got != w+1 {
				t.Errorf("word %d persisted = %d, want %d", w, got, w+1)
			}
		}
		if sys.Metrics().Snapshot().WBINVDs != 1 {
			t.Errorf("WBINVDs = %d, want 1", sys.Metrics().Snapshot().WBINVDs)
		}
	})
}

func TestWBINVDCostScalesWithDirtyLines(t *testing.T) {
	costs := sim.Costs{WBINVDBase: 1000, WBINVDPerLine: 10}
	var fewDirty, manyDirty uint64
	runOne(t, Config{Costs: costs}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 4096)
		m.Store(th, 0, 1)
		before := th.Clock()
		sys.WBINVD(th, m)
		fewDirty = th.Clock() - before
		for w := uint64(0); w < 4096; w += WordsPerLine {
			m.Store(th, w, 2)
		}
		before = th.Clock()
		sys.WBINVD(th, m)
		manyDirty = th.Clock() - before
	})
	if manyDirty <= fewDirty {
		t.Errorf("WBINVD with many dirty lines (%d ns) not costlier than few (%d ns)", manyDirty, fewDirty)
	}
}

func TestCrashLosesUnflushedData(t *testing.T) {
	sch := sim.New(1)
	sys := NewSystem(sch, Config{})
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 0, 100)
		f.FlushLineSync(th, m, 0)
		m.Store(th, 8, 200) // separate line, never flushed
	})
	sch.Run()
	rec := sys.Recover(sim.New(2))
	m := rec.Memory("m")
	sch2 := rec.Scheduler()
	var flushed, lost uint64
	sch2.Spawn("r", 0, 0, func(th *sim.Thread) {
		flushed = m.Load(th, 0)
		lost = m.Load(th, 8)
	})
	sch2.Run()
	if flushed != 100 {
		t.Errorf("flushed word = %d after crash, want 100", flushed)
	}
	if lost != 0 {
		t.Errorf("unflushed word = %d after crash, want 0 (lost)", lost)
	}
}

func TestCrashKeepsOldPersistedValueNotZero(t *testing.T) {
	sch := sim.New(1)
	sys := NewSystem(sch, Config{})
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 0, 1)
		f.FlushLineSync(th, m, 0)
		m.Store(th, 0, 2) // overwrite, never flushed
	})
	sch.Run()
	rec := sys.Recover(sim.New(2))
	if got := rec.Memory("m").PersistedLoad(0); got != 1 {
		t.Errorf("persisted = %d, want old value 1 (not the lost overwrite)", got)
	}
}

func TestVolatileMemoryGoneAfterCrash(t *testing.T) {
	sch := sim.New(1)
	sys := NewSystem(sch, Config{})
	sys.NewMemory("v", Volatile, 0, 64)
	sys.NewMemory("p", NVM, 0, 64)
	sch.Run()
	rec := sys.Recover(sim.New(2))
	if rec.HasMemory("v") {
		t.Error("volatile memory survived crash")
	}
	if !rec.HasMemory("p") {
		t.Error("NVM memory lost at crash")
	}
}

func TestUnfencedFlushesCoinFlipAtCrash(t *testing.T) {
	// With many independent unfenced lines, roughly half must persist.
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Seed: 7})
	const lines = 400
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, lines*WordsPerLine)
		f := sys.NewFlusher()
		for l := uint64(0); l < lines; l++ {
			m.Store(th, l*WordsPerLine, l+1)
			f.FlushLine(th, m, l*WordsPerLine)
		}
		// no fence: crash leaves all lines in undefined state
	})
	sch.Run()
	rec := sys.Recover(sim.New(2))
	m := rec.Memory("m")
	persisted := 0
	for l := uint64(0); l < lines; l++ {
		if m.PersistedLoad(l*WordsPerLine) == l+1 {
			persisted++
		}
	}
	if persisted < lines/4 || persisted > lines*3/4 {
		t.Errorf("persisted %d of %d unfenced lines; want roughly half", persisted, lines)
	}
}

func TestBackgroundFlushesHappen(t *testing.T) {
	runOne(t, Config{BGFlushOneIn: 16, Seed: 3}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 8192)
		for w := uint64(0); w < 8192; w++ {
			m.Store(th, w, 1)
		}
		if sys.Metrics().Snapshot().BGFlushes == 0 {
			t.Error("no background flushes after 8192 NVM stores with 1/16 probability")
		}
	})
}

func TestBackgroundFlushesDisabledByDefault(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 8192)
		for w := uint64(0); w < 8192; w++ {
			m.Store(th, w, 1)
		}
		if got := sys.Metrics().Snapshot().BGFlushes; got != 0 {
			t.Errorf("BGFlushes = %d with feature disabled, want 0", got)
		}
	})
}

func TestBackgroundFlushCanLeakMidUpdateState(t *testing.T) {
	// The §4.1 hazard: with background flushes on, an unflushed store can
	// nonetheless appear in the persisted view.
	sch := sim.New(1)
	sys := NewSystem(sch, Config{BGFlushOneIn: 4, Seed: 11})
	var leaked bool
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		m := sys.NewMemory("m", NVM, 0, 4096)
		for w := uint64(0); w < 4096; w++ {
			m.Store(th, w, 99)
			if m.PersistedLoad(w) == 99 {
				leaked = true
			}
		}
	})
	sch.Run()
	if !leaked {
		t.Error("no store leaked to NVM despite aggressive background flushing")
	}
}

func TestCoherenceTransferCosts(t *testing.T) {
	// MSI accounting: a load of a line another thread wrote pays a transfer
	// (same-node cheaper than cross-node); re-loads of shared lines and the
	// owner's own accesses are plain cache hits.
	costs := sim.Costs{LocalAccess: 10, CoherenceLocal: 40, CoherenceRemote: 100}
	var writerStore, sameNodeLoad, crossNodeLoad, reload, ownerReload uint64
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Costs: costs})
	m := sys.NewMemory("m", Volatile, 0, 128)
	step := 0
	sch.Spawn("writer-n0", 0, 0, func(th *sim.Thread) {
		before := th.Clock()
		m.Store(th, 0, 1) // line 0: shared→M upgrade
		writerStore = th.Clock() - before
		m.Store(th, 64, 1) // line 8 for the cross-node case
		step = 1
		for step < 3 {
			th.Step(5)
		}
		before = th.Clock()
		m.Load(th, 64) // line downgraded to shared by reader: plain hit? it
		// was read by n1 (shared now): owner's reload is a hit.
		ownerReload = th.Clock() - before
	})
	sch.Spawn("reader-n0", 0, 0, func(th *sim.Thread) {
		for step < 1 {
			th.Step(5)
		}
		before := th.Clock()
		m.Load(th, 0) // owned by writer on same node
		sameNodeLoad = th.Clock() - before
		before = th.Clock()
		m.Load(th, 0) // now shared
		reload = th.Clock() - before
		step = 2
	})
	sch.Spawn("reader-n1", 1, 0, func(th *sim.Thread) {
		for step < 2 {
			th.Step(5)
		}
		before := th.Clock()
		m.Load(th, 64) // owned by writer on node 0, we are node 1
		crossNodeLoad = th.Clock() - before
		step = 3
	})
	sch.Run()
	if writerStore != 50 { // 10 + CoherenceLocal upgrade from shared
		t.Errorf("first store = %d, want 50", writerStore)
	}
	if sameNodeLoad != 50 { // 10 + 40
		t.Errorf("same-node foreign load = %d, want 50", sameNodeLoad)
	}
	if crossNodeLoad != 110 { // 10 + 100
		t.Errorf("cross-node foreign load = %d, want 110", crossNodeLoad)
	}
	if reload != 10 {
		t.Errorf("shared reload = %d, want 10", reload)
	}
	if ownerReload != 10 {
		t.Errorf("owner reload of shared line = %d, want 10", ownerReload)
	}
}

func TestContendedLineCostlierThanPrivate(t *testing.T) {
	// Two threads alternately storing to one line pay transfers every time;
	// a thread storing to its private line pays only once.
	costs := sim.Costs{LocalAccess: 10, CoherenceLocal: 40, CoherenceRemote: 100}
	sch := sim.New(1)
	sys := NewSystem(sch, Config{Costs: costs})
	m := sys.NewMemory("m", Volatile, 0, 128)
	var pingPong, private uint64
	sch.Spawn("a", 0, 0, func(th *sim.Thread) {
		start := th.Clock()
		for i := 0; i < 50; i++ {
			m.Store(th, 0, uint64(i))
		}
		pingPong = th.Clock() - start
	})
	sch.Spawn("b", 1, 0, func(th *sim.Thread) {
		for i := 0; i < 50; i++ {
			m.Store(th, 0, uint64(i))
		}
	})
	sch.Spawn("c", 0, 0, func(th *sim.Thread) {
		start := th.Clock()
		for i := 0; i < 50; i++ {
			m.Store(th, 64, uint64(i))
		}
		private = th.Clock() - start
	})
	sch.Run()
	if pingPong <= private*2 {
		t.Errorf("contended line (%d) not much costlier than private (%d)", pingPong, private)
	}
}

func TestNVMAccessExtraCost(t *testing.T) {
	costs := sim.Costs{LocalAccess: 10, NVMStoreExtra: 40, NVMLoadExtra: 20}
	var storeCost, loadCost uint64
	runOne(t, Config{Costs: costs}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		before := th.Clock()
		m.Store(th, 0, 1)
		storeCost = th.Clock() - before
		before = th.Clock()
		m.Load(th, 0)
		loadCost = th.Clock() - before
	})
	if storeCost != 50 {
		t.Errorf("NVM store cost = %d, want 50", storeCost)
	}
	if loadCost != 30 {
		t.Errorf("NVM load cost = %d, want 30", loadCost)
	}
}

func TestFlushOnVolatilePanics(t *testing.T) {
	sch := sim.New(1)
	sys := NewSystem(sch, Config{})
	m := sys.NewMemory("v", Volatile, 0, 64)
	f := sys.NewFlusher()
	panicked := false
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		f.FlushLine(th, m, 0)
	})
	sch.Run()
	if !panicked {
		t.Error("expected panic flushing volatile memory")
	}
}

func TestDuplicateMemoryNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate name")
		}
	}()
	sys := NewSystem(sim.New(1), Config{})
	sys.NewMemory("x", Volatile, 0, 64)
	sys.NewMemory("x", Volatile, 0, 64)
}

func TestSizeRoundedToLine(t *testing.T) {
	sys := NewSystem(sim.New(1), Config{})
	m := sys.NewMemory("m", Volatile, 0, 13)
	if m.Words() != 16 {
		t.Errorf("Words = %d, want 16 (rounded to line)", m.Words())
	}
}

func TestStatsCounters(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		f := sys.NewFlusher()
		m.Store(th, 0, 1)
		m.Load(th, 0)
		m.CAS(th, 0, 1, 2)
		f.FlushLine(th, m, 0)
		f.Fence(th)
		m.Store(th, 0, 3) // re-dirty: a sync flush of a clean line is elided
		f.FlushLineSync(th, m, 0)
		st := sys.Metrics().Snapshot()
		if st.Stores != 2 || st.Loads != 1 || st.CASes != 1 {
			t.Errorf("stats = %+v", st)
		}
		if st.FlushAsync != 1 || st.FlushSync != 1 {
			t.Errorf("flush stats = %+v", st)
		}
		if sys.Metrics().Snapshot().Fences != 1 {
			t.Errorf("fences = %d, want 1", sys.Metrics().Snapshot().Fences)
		}
	})
}

func TestConcurrentStoresFromManyThreads(t *testing.T) {
	sch := sim.New(5)
	sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
	m := sys.NewMemory("m", Volatile, Interleaved, 8*WordsPerLine)
	const n = 8
	for w := 0; w < n; w++ {
		w := uint64(w)
		sch.Spawn("w", int(w)%2, 0, func(th *sim.Thread) {
			for i := 0; i < 100; i++ {
				m.Store(th, w, m.Load(th, w)+1)
			}
		})
	}
	sch.Run()
	sch2 := sim.New(6)
	_ = sch2
	// verify final values directly (scheduler drained)
	for w := uint64(0); w < n; w++ {
		if got := m.data.load(w); got != 100 {
			t.Errorf("word %d = %d, want 100", w, got)
		}
	}
}

func TestCASContention(t *testing.T) {
	// Many threads CAS-increment one counter; the total must be exact.
	sch := sim.New(9)
	sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
	m := sys.NewMemory("m", Volatile, Interleaved, WordsPerLine)
	const n, per = 10, 50
	for w := 0; w < n; w++ {
		sch.Spawn("w", w%2, 0, func(th *sim.Thread) {
			for i := 0; i < per; i++ {
				for {
					old := m.Load(th, 0)
					if m.CAS(th, 0, old, old+1) {
						break
					}
				}
			}
		})
	}
	sch.Run()
	if got := m.data.load(0); got != n*per {
		t.Errorf("counter = %d, want %d", got, n*per)
	}
}
