package nvm

import (
	"slices"
	"testing"

	"prepuc/internal/sim"
)

// Only the owner may touch a private memory: another thread's access, flush
// or write-back, and a Watch by anyone, is a bug panic that names the memory
// and both threads. A clone of the machine does not carry the declaration.
func TestPrivateMemoryRefusesForeignAccess(t *testing.T) {
	const owner = `private to thread "owner"`
	for _, tc := range []struct {
		name string
		// touch runs on "other" while m is private to "owner"; f is other's.
		touch func(sys *System, m *Memory, f *Flusher, th *sim.Thread)
		want  string
	}{
		{"load", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Load(th, 0) }, `thread "other" accessed m, ` + owner},
		{"store", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Store(th, 0, 1) }, `thread "other" accessed m, ` + owner},
		{"cas", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CAS(th, 0, 0, 1) }, `thread "other" accessed m, ` + owner},
		{"load begin", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.LoadBegin(th, 0) }, `thread "other" accessed m, ` + owner},
		{"flush", func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLine(th, m, 0) }, `thread "other" accessed m, ` + owner},
		{"flush sync", func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLineSync(th, m, 0) }, `thread "other" accessed m, ` + owner},
		{"flush region", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushRegion(th, 0, 8) }, `thread "other" accessed m, ` + owner},
		{"flush all dirty", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushAllDirty(th) }, `thread "other" accessed m, ` + owner},
		{"wbinvd", func(sys *System, m *Memory, _ *Flusher, th *sim.Thread) { sys.WBINVD(th, m) }, `thread "other" accessed m, ` + owner},
		{"watch", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Watch(th, 0) }, `thread "other" watched m, ` + owner},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch := sim.New(0)
			sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
			m := sys.NewMemory("m", NVM, 0, 64)
			f := sys.NewFlusher()
			sch.Spawn("owner", 0, 0, func(th *sim.Thread) {
				m.SetPrivate(th, true)
				m.Store(th, 0, 7)
				th.Step(100)
			})
			sch.Spawn("other", 0, 10, func(th *sim.Thread) { tc.touch(sys, m, f, th) })
			var rc any
			func() {
				defer func() { rc = recover() }()
				sch.Run()
			}()
			if want := `sim thread "other": nvm: ` + tc.want; rc != want {
				t.Fatalf("Run panicked with %v, want %q", rc, want)
			}

			// The owner's declaration stays on the crashed machine's memory;
			// a clone's copy of it is shared.
			csch := sim.New(0)
			c := sys.Clone(csch)
			csch.Spawn("other", 0, 0, func(th *sim.Thread) {
				if v := c.Memory("m").Load(th, 0); v != 7 {
					t.Errorf("clone reads %d, want 7", v)
				}
			})
			csch.Run()
		})
	}
}

// The owner's loads and stores to its private memory charge without a
// dispatch decision, its stores to a shared memory settle first, and its
// private accesses stop at a crash instant exactly where the Chooser twin's
// Steps stop: the clocks and the persisted view, with background write-backs
// at every other store, are the twin's.
func TestPrivateAccessesMatchChooserTwin(t *testing.T) {
	type result struct {
		clocks    []uint64
		persisted uint64
		frozen    bool
	}
	run := func(chooser bool, instant uint64) result {
		sch := sim.New(0)
		if chooser {
			sch.SetChooser(minClock{})
		}
		sys := NewSystem(sch, Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 2, Seed: 5})
		heap := sys.NewMemory("heap", NVM, 0, 256)
		shared := sys.NewMemory("shared", NVM, 0, 64)
		if instant != 0 {
			sch.CrashAtInstant(instant, nil)
		}
		ths := []*sim.Thread{sch.Spawn("owner", 0, 0, func(th *sim.Thread) {
			heap.SetPrivate(th, true)
			for i := uint64(0); i < 40; i++ {
				for j := uint64(0); j < 6; j++ {
					off := (i*6 + j) % heap.Words()
					heap.Store(th, off, heap.Load(th, off)+i)
				}
				shared.Store(th, 8*(1+i%3), i) // a line the other threads write
			}
			sys.WBINVD(th, heap)
			sys.NewFlusher().Fence(th)
			heap.SetPrivate(th, false)
		})}
		for w := 1; w < 4; w++ {
			f := sys.NewFlusher()
			ths = append(ths, sch.Spawn("w", w%2, 0, func(th *sim.Thread) {
				for i := uint64(0); i < 60; i++ {
					shared.Store(th, 8*uint64(w)+i%8, i)
					f.FlushLine(th, shared, 8*uint64(w))
				}
				f.Fence(th)
			}))
		}
		sch.Run()
		res := result{persisted: sys.PersistedFingerprint(), frozen: sch.Frozen()}
		for _, th := range ths {
			res.clocks = append(res.clocks, th.Clock())
		}
		return res
	}
	whole := run(false, 0)
	if twin := run(true, 0); !slices.Equal(whole.clocks, twin.clocks) || whole.persisted != twin.persisted {
		t.Fatalf("plain %+v, twin %+v", whole, twin)
	}
	for at := whole.clocks[0] / 7; at < whole.clocks[0]; at += whole.clocks[0] / 7 {
		got, want := run(false, at), run(true, at)
		if !got.frozen || !slices.Equal(got.clocks, want.clocks) || got.persisted != want.persisted {
			t.Fatalf("crash at %d ns: plain %+v, twin %+v", at, got, want)
		}
	}
}
