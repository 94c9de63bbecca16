package pmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// run executes fn on one simulated thread with a fresh heap of the given size.
func run(t *testing.T, words uint64, fn func(*sim.Thread, *Allocator)) {
	t.Helper()
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("heap", nvm.Volatile, 0, words)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		fn(th, New(th, m))
	})
	sch.Run()
}

func TestAllocReturnsDistinctBlocks(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *Allocator) {
		seen := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			off := a.Alloc(th, 4)
			if off == 0 {
				t.Fatal("Alloc returned null")
			}
			if seen[off] {
				t.Fatalf("Alloc returned %d twice", off)
			}
			seen[off] = true
		}
	})
}

func TestAllocZeroed(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *Allocator) {
		off := a.Alloc(th, 8)
		for i := uint64(0); i < 8; i++ {
			a.Memory().Store(th, off+i, 999)
		}
		a.Free(th, off)
		off2 := a.Alloc(th, 8)
		if off2 != off {
			t.Fatalf("expected recycled block %d, got %d", off, off2)
		}
		for i := uint64(0); i < 8; i++ {
			if got := a.Memory().Load(th, off2+i); got != 0 {
				t.Fatalf("recycled word %d = %d, want 0", i, got)
			}
		}
	})
}

func TestFreeRecyclesSameClass(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *Allocator) {
		off := a.Alloc(th, 16)
		a.Free(th, off)
		if got := a.Alloc(th, 16); got != off {
			t.Errorf("Alloc after Free = %d, want recycled %d", got, off)
		}
	})
}

func TestFreeListLIFO(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *Allocator) {
		x := a.Alloc(th, 4)
		y := a.Alloc(th, 4)
		a.Free(th, x)
		a.Free(th, y)
		if got := a.Alloc(th, 4); got != y {
			t.Errorf("first realloc = %d, want LIFO head %d", got, y)
		}
		if got := a.Alloc(th, 4); got != x {
			t.Errorf("second realloc = %d, want %d", got, x)
		}
	})
}

func TestSizeClassesDoNotMix(t *testing.T) {
	run(t, 1<<16, func(th *sim.Thread, a *Allocator) {
		small := a.Alloc(th, 2)
		a.Free(th, small)
		big := a.Alloc(th, 64)
		if big == small {
			t.Error("64-word alloc reused a 2-word block")
		}
	})
}

func TestBlocksDoNotOverlap(t *testing.T) {
	run(t, 1<<18, func(th *sim.Thread, a *Allocator) {
		type blk struct{ off, words uint64 }
		var blks []blk
		sizes := []uint64{1, 2, 3, 7, 8, 15, 31, 64}
		for i := 0; i < 50; i++ {
			w := sizes[i%len(sizes)]
			blks = append(blks, blk{a.Alloc(th, w), w})
		}
		// Write a unique pattern in every block, then verify none clobbered.
		for i, b := range blks {
			for j := uint64(0); j < b.words; j++ {
				a.Memory().Store(th, b.off+j, uint64(i)<<32|j)
			}
		}
		for i, b := range blks {
			for j := uint64(0); j < b.words; j++ {
				if got := a.Memory().Load(th, b.off+j); got != uint64(i)<<32|j {
					t.Fatalf("block %d word %d corrupted: %#x", i, j, got)
				}
			}
		}
	})
}

func TestFreeNullIsNoop(t *testing.T) {
	run(t, 1<<12, func(th *sim.Thread, a *Allocator) {
		a.Free(th, 0) // must not panic
	})
}

func TestRootSlots(t *testing.T) {
	run(t, 1<<12, func(th *sim.Thread, a *Allocator) {
		for s := 0; s < NumRoots; s++ {
			a.SetRoot(th, s, uint64(s)*11+1)
		}
		for s := 0; s < NumRoots; s++ {
			if got := a.Root(th, s); got != uint64(s)*11+1 {
				t.Errorf("root %d = %d", s, got)
			}
		}
	})
}

func TestOOMPanics(t *testing.T) {
	run(t, 256, func(th *sim.Thread, a *Allocator) {
		defer func() {
			if recover() == nil {
				t.Error("expected OOM panic")
			}
		}()
		for i := 0; i < 1000; i++ {
			a.Alloc(th, 32)
		}
	})
}

func TestAttachAfterCrashSeesRoots(t *testing.T) {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("heap", nvm.NVM, 0, 1<<12)
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		a := New(th, m)
		f := sys.NewFlusher()
		off := a.Alloc(th, 4)
		a.Memory().Store(th, off, 1234)
		a.SetRoot(th, 0, off)
		// Persist the header line (magic + root) and the block.
		f.FlushLineSync(th, m, offMagic)
		f.FlushLineSync(th, m, offRoot0)
		f.FlushLineSync(th, m, off)
	})
	sch.Run()
	rec := sys.Recover(sim.New(2))
	m2 := rec.Memory("heap")
	rec.Scheduler().Spawn("r", 0, 0, func(th *sim.Thread) {
		a := Attach(th, m2)
		off := a.Root(th, 0)
		if off == 0 {
			t.Error("root lost after crash")
			return
		}
		if got := a.Memory().Load(th, off); got != 1234 {
			t.Errorf("persisted block word = %d, want 1234", got)
		}
	})
	rec.Scheduler().Run()
}

func TestAttachUnformattedPanics(t *testing.T) {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{})
	m := sys.NewMemory("heap", nvm.Volatile, 0, 1<<12)
	panicked := false
	sch.Spawn("t", 0, 0, func(th *sim.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		Attach(th, m)
	})
	sch.Run()
	if !panicked {
		t.Error("Attach on unformatted memory did not panic")
	}
}

func TestClassForProperty(t *testing.T) {
	// Property: a class always fits the request and is minimal.
	f := func(n uint16) bool {
		words := uint64(n%2048) + 1
		c := classFor(words)
		cap := uint64(1) << uint(c)
		if cap < words {
			return false
		}
		return c == 0 || uint64(1)<<uint(c-1) < words
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocFreeChurnProperty(t *testing.T) {
	// Property: arbitrary alloc/free sequences never hand out overlapping
	// live blocks.
	run(t, 1<<20, func(th *sim.Thread, a *Allocator) {
		rng := rand.New(rand.NewSource(int64(th.ID())))
		type blk struct{ off, words uint64 }
		var live []blk
		overlap := func(x, y blk) bool {
			return x.off < y.off+y.words && y.off < x.off+x.words
		}
		for i := 0; i < 2000; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				a.Free(th, live[k].off)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			w := uint64(rng.Intn(60) + 1)
			nb := blk{a.Alloc(th, w), w}
			for _, lb := range live {
				if overlap(nb, lb) {
					t.Fatalf("block %+v overlaps live %+v", nb, lb)
				}
			}
			live = append(live, nb)
		}
	})
}
