package nvm

import (
	"fmt"
	"sync"
	"testing"

	"prepuc/internal/sim"
)

// countSlabRefs tallies, per page, how many table entries of s reference it.
func countSlabRefs[T any](s *slab[T], counts map[*page[T]]int32) {
	for _, p := range s.pages {
		counts[p]++
	}
}

// checkPageRefs asserts the reference-count invariant over every page
// reachable from the tracked systems: a regular page's count must equal the
// number of table entries referencing it (greater means a leak, smaller a
// double-release that would let two machines scribble on one page), and a
// pinned zero page must still be pinned.
func checkPageRefs[T any](t *testing.T, counts map[*page[T]]int32, label string) {
	t.Helper()
	for p, n := range counts {
		ref := p.ref // schedulers drained; no concurrent access
		if ref >= zeroPinned/2 {
			continue // shared zero page, pinned by construction
		}
		if ref != n {
			t.Errorf("%s: page with %d table references has ref %d", label, n, ref)
		}
	}
}

// auditSystems runs the refcount audit across every slab of every memory of
// the given systems. The set must be closed: every live system sharing pages
// with a listed one must itself be listed.
func auditSystems(t *testing.T, label string, systems ...*System) {
	t.Helper()
	u64 := map[*page[uint64]]int32{}
	i32 := map[*page[int32]]int32{}
	u8 := map[*page[uint8]]int32{}
	for _, s := range systems {
		for _, m := range s.order {
			countSlabRefs(&m.data, u64)
			countSlabRefs(&m.persisted, u64)
			countSlabRefs(&m.owner, i32)
			countSlabRefs(&m.ownerNode, i32)
			countSlabRefs(&m.dstate, u8)
		}
	}
	checkPageRefs(t, u64, label+"/words")
	checkPageRefs(t, i32, label+"/owners")
	checkPageRefs(t, u8, label+"/dstate")
}

// TestCloneCOWStress is the -j sweep pattern under the race detector: one
// parent machine is cloned N times (host-side, sequential — Clone mutates
// shared reference counts against parent access), then the parent and every
// clone run workloads concurrently on their own host goroutines, racing to
// privatize the same shared pages. Afterwards every machine must see exactly
// its own writes, and the page reference counts must balance: each page
// either uniquely owned or counted once per referencing table.
func TestCloneCOWStress(t *testing.T) {
	const (
		clones   = 8
		memWords = 1 << 15
	)
	boot := sim.New(1)
	parent := NewSystem(boot, Config{Costs: sim.UnitCosts(), BGFlushOneIn: 16, Seed: 1})
	heap := parent.NewMemory("heap", NVM, 0, memWords)
	parent.NewMemory("dram", Volatile, 0, memWords/4)
	boot.Spawn("init", 0, 0, func(th *sim.Thread) {
		f := parent.NewFlusher()
		for i := uint64(0); i < memWords; i += WordsPerLine / 2 {
			heap.Store(th, i, i)
		}
		for i := uint64(0); i < 32; i++ {
			f.FlushLine(th, heap, i*WordsPerLine)
		}
	})
	boot.Run()

	sys := make([]*System, clones+1)
	sys[0] = parent
	for i := 1; i <= clones; i++ {
		sys[i] = parent.Clone(sim.New(int64(i) + 10))
	}

	// Every machine stores its own id over the same stripe of lines, so all
	// of them race to privatize the same shared pages; each then crashes
	// with pending flushes and recovers (COW-sharing its persisted pages
	// into the recovered machine) and probes its state.
	recovered := make([]*System, clones+1)
	var wg sync.WaitGroup
	for id := range sys {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sys[id]
			sch := sim.New(int64(id) + 300)
			s.SetScheduler(sch)
			h := s.Memory("heap")
			sch.Spawn("mut", 0, 0, func(th *sim.Thread) {
				f := s.NewFlusher()
				for i := uint64(0); i < memWords; i += WordsPerLine {
					h.Store(th, i, uint64(id)<<32|i)
				}
				for i := uint64(0); i < 16; i++ {
					f.FlushLine(th, h, (i*3)*WordsPerLine)
				}
				s.sch.CrashNow()
			})
			sch.Run()
			rec := s.Recover(sim.New(int64(id) + 100))
			recovered[id] = rec
			rsch := sim.New(int64(id) + 200)
			rec.SetScheduler(rsch)
			rh := rec.Memory("heap")
			rsch.Spawn("probe", 0, 0, func(th *sim.Thread) {
				for i := uint64(0); i < 256; i++ {
					rh.Store(th, i*WordsPerLine+1, uint64(id))
				}
				rec.WBINVD(th, rh)
			})
			rsch.Run()
		}()
	}
	wg.Wait()

	// Isolation: every recovered machine's persisted view carries its own
	// id in every surviving stripe word, never a sibling's.
	for id, rec := range recovered {
		h := rec.Memory("heap")
		for i := uint64(0); i < 256; i++ {
			if got := h.PersistedLoad(i*WordsPerLine + 1); got != uint64(id) {
				t.Fatalf("machine %d: persisted probe word %d = %d, want %d", id, i, got, id)
			}
		}
	}

	all := append(append([]*System{}, sys...), recovered...)
	auditSystems(t, fmt.Sprintf("%d clones post-run", clones), all...)
}

// TestCloneRefcountsBalanceAfterChain audits a deep clone/recover chain —
// the shape a bisecting crash harness produces — including slabs that were
// never written (still fully aliasing their source or the zero page).
func TestCloneRefcountsBalanceAfterChain(t *testing.T) {
	sch := sim.New(3)
	sys := NewSystem(sch, Config{Costs: sim.UnitCosts(), Seed: 3})
	m := sys.NewMemory("m", NVM, 0, 1<<14)
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		for i := uint64(0); i < 1<<12; i++ {
			m.Store(th, i, i)
		}
		sys.WBINVD(th, m)
	})
	sch.Run()

	chain := []*System{sys}
	cur := sys
	for i := 0; i < 5; i++ {
		c := cur.Clone(sim.New(int64(i) + 50))
		chain = append(chain, c)
		csch := c.Scheduler()
		cm := c.Memory("m")
		touched := i%2 == 0
		csch.Spawn("w", 0, 0, func(th *sim.Thread) {
			if touched {
				for j := uint64(0); j < 128; j++ {
					cm.Store(th, j*WordsPerLine, uint64(i))
				}
			}
			c.sch.CrashNow()
		})
		csch.Run()
		cur = c.Recover(sim.New(int64(i) + 150))
		chain = append(chain, cur)
	}
	auditSystems(t, "clone/recover chain", chain...)

	snap := cur.Metrics().Snapshot()
	if snap.Clones == 0 || snap.PagesCopied == 0 {
		t.Errorf("chain recorded clones=%d pages_copied=%d, want both nonzero", snap.Clones, snap.PagesCopied)
	}
}

// TestZeroPagePrivatizesZeroed writes through a fresh slab, whose pages all
// alias the pinned zero page: the privatized page must read zero everywhere
// but the written word, the pinned page must stay zero, and the write counts
// as one page copy like any other privatization.
func TestZeroPagePrivatizesZeroed(t *testing.T) {
	var copied uint64
	s := newZeroSlab[uint64](2*pageWords, &copied)
	zero := s.pages[1]
	s.store(pageWords+7, 42)
	if copied != 1 {
		t.Fatalf("copied = %d after one write to a zero page, want 1", copied)
	}
	if s.pages[1] == zero || s.pages[1].zero() || s.pages[0] != zero {
		t.Fatal("the write did not privatize exactly its own page")
	}
	for i := uint64(0); i < 2*pageWords; i++ {
		want := uint64(0)
		if i == pageWords+7 {
			want = 42
		}
		if got := s.load(i); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
	for i, v := range zero.vals {
		if v != 0 {
			t.Fatalf("pinned zero page word %d = %d after a write through it", i, v)
		}
	}
}
