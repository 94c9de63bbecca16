package nvm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// Nobody stores to a frozen memory: a Store, CAS, flush, write-back or Watch
// on it, by a holder or not, and a non-holder's load, is a bug panic naming
// the memory, the offender and a holder; so is declaring a frozen memory
// private or freezing a private one. A clone or a recovered machine does not
// carry the declaration.
func TestFrozenMemoryRefusesWriters(t *testing.T) {
	const held = `, frozen under thread "reader"`
	type effect func(sys *System, m *Memory, f *Flusher, th *sim.Thread)
	for _, tc := range []struct {
		name   string
		holder bool // the effect runs on the holder, else on "other"
		touch  effect
		want   string
	}{
		{"store", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Store(th, 0, 1) }, `thread "other" accessed m` + held},
		{"holder store", true, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Store(th, 0, 1) }, `thread "reader" accessed m` + held},
		{"cas", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CAS(th, 0, 0, 1) }, `thread "other" accessed m` + held},
		{"holder cas", true, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CAS(th, 0, 7, 1) }, `thread "reader" accessed m` + held},
		{"store begin", true, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.StoreBegin(th, 0) }, `thread "reader" accessed m` + held},
		{"cas begin", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CASBegin(th, 0) }, `thread "other" accessed m` + held},
		{"load", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Load(th, 0) }, `thread "other" accessed m` + held},
		{"load begin", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.LoadBegin(th, 0) }, `thread "other" accessed m` + held},
		{"flush", true, func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLine(th, m, 0) }, `thread "reader" accessed m` + held},
		{"flush sync", false, func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLineSync(th, m, 0) }, `thread "other" accessed m` + held},
		{"flush region", true, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushRegion(th, 0, 8) }, `thread "reader" accessed m` + held},
		{"flush all dirty", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushAllDirty(th) }, `thread "other" accessed m` + held},
		{"wbinvd", true, func(sys *System, m *Memory, _ *Flusher, th *sim.Thread) { sys.WBINVD(th, m) }, `thread "reader" accessed m` + held},
		{"watch", true, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Watch(th, 0) }, `thread "reader" watched m` + held},
		{"private", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.SetPrivate(th, true) },
			`m is frozen under thread "reader" and cannot be private to thread "other"`},
		{"release", false, func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.SetFrozen(th, false) },
			`thread "other" released m, which is not frozen under it`},
		{"freeze private", false, func(sys *System, _ *Memory, _ *Flusher, th *sim.Thread) {
			p := sys.Memory("p")
			p.SetPrivate(th, true)
			p.SetFrozen(th, true)
		}, `p is private to thread "other" and cannot be frozen under thread "other"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch := sim.New(0)
			sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
			m := sys.NewMemory("m", NVM, 0, 64)
			sys.NewMemory("p", NVM, 0, 64)
			f := sys.NewFlusher()
			sch.Spawn("writer", 0, 0, func(th *sim.Thread) { m.Store(th, 0, 7) })
			offender := "other"
			sch.Spawn("reader", 0, 5, func(th *sim.Thread) {
				m.SetFrozen(th, true)
				if v := m.Load(th, 0); v != 7 {
					t.Errorf("holder reads %d, want 7", v)
				}
				if tc.holder {
					offender = "reader"
					tc.touch(sys, m, f, th)
				}
				th.Step(100)
			})
			if !tc.holder {
				sch.Spawn("other", 0, 10, func(th *sim.Thread) { tc.touch(sys, m, f, th) })
			}
			var rc any
			func() {
				defer func() { rc = recover() }()
				sch.Run()
			}()
			if want := `sim thread "` + offender + `": nvm: ` + tc.want; rc != want {
				t.Fatalf("Run panicked with %v, want %q", rc, want)
			}

			// The crashed machine's memory stays frozen; a clone's copy and a
			// recovered one are shared, so anyone may store to them.
			for what, c := range map[string]*System{"clone": sys.Clone(sim.New(0)), "recovered": sys.Recover(sim.New(0))} {
				c.Scheduler().Spawn("other", 0, 0, func(th *sim.Thread) {
					cm := c.Memory("m")
					cm.Store(th, 8, 1)
					if what == "clone" && cm.Load(th, 0) != 7 {
						t.Errorf("clone lost the writer's store")
					}
				})
				c.Scheduler().Run()
			}
		})
	}
}

// Holders' loads of a frozen memory are indistinguishable from Steps. Four
// threads take turns at a test reader–writer lock over a heap: a writer
// stores to heap lines, which it then owns; readers freeze the heap and load
// lines that are shared, their own or owned elsewhere, and the first of them
// to load a line owned elsewhere pays the transfer and downgrades it. Every
// such run, plain and crashed at instants inside charged frozen stretches,
// must end exactly where its MinClock Chooser twin ends: clocks, events,
// counters and persisted image, with background write-backs at every other
// store. Each release settles its holder.
func TestFrozenLoadsMatchChooserTwin(t *testing.T) {
	type result struct {
		clocks    []uint64
		events    uint64
		counters  metrics.Counters
		persisted uint64
		frozen    bool
	}
	const writerBit = 1 << 32
	run := func(chooser bool, instant uint64) (res result, charged []uint64) {
		sch := sim.New(0)
		if chooser {
			sch.SetChooser(minClock{})
		}
		sys := NewSystem(sch, Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 2, Seed: 9})
		heap := sys.NewMemory("heap", NVM, 0, 512)
		lock := sys.NewMemory("lock", Volatile, 0, 8)
		out := sys.NewMemory("out", NVM, 0, 64)
		if instant != 0 {
			sch.CrashAtInstant(instant, nil)
		}
		acquire := func(th *sim.Thread, write bool) {
			for {
				v := lock.Load(th, 0)
				switch {
				case write && v == 0 && lock.CAS(th, 0, 0, writerBit):
					return
				case !write && v < writerBit && lock.CAS(th, 0, v, v+1):
					return
				}
				th.Step(40)
			}
		}
		var ths []*sim.Thread
		for w := uint64(0); w < 4; w++ {
			ths = append(ths, sch.Spawn(fmt.Sprintf("t%d", w), int(w%2), 3*w, func(th *sim.Thread) {
				for round := uint64(0); round < 12; round++ {
					if (round+w)%4 == 0 {
						acquire(th, true)
						for i := uint64(0); i < 5; i++ {
							off := ((w*7 + round*3 + i*5) % 64) * WordsPerLine
							heap.Store(th, off, heap.Load(th, off)+w+1)
						}
						lock.Store(th, 0, 0)
						continue
					}
					acquire(th, false)
					heap.SetFrozen(th, true)
					var sum uint64
					for i := uint64(0); i < 24; i++ {
						sum += heap.Load(th, ((w+round*5+i*3)%64)*WordsPerLine+i%WordsPerLine)
						if th.Ahead() {
							charged = append(charged, th.Clock())
						}
					}
					heap.SetFrozen(th, false)
					if th.Ahead() {
						t.Errorf("thread %d is still ahead after its release", w)
					}
					for v := lock.Load(th, 0); !lock.CAS(th, 0, v, v-1); v = lock.Load(th, 0) {
						th.Step(40)
					}
					out.Store(th, w*WordsPerLine+round%WordsPerLine, sum)
				}
			}))
		}
		sch.Run()
		res = result{events: sch.Events(), counters: sys.Metrics().Counters, persisted: sys.PersistedFingerprint(), frozen: sch.Frozen()}
		for _, th := range ths {
			res.clocks = append(res.clocks, th.Clock())
		}
		return res, charged
	}
	whole, charged := run(false, 0)
	if twin, _ := run(true, 0); !reflect.DeepEqual(whole, twin) {
		t.Fatalf("plain %+v,\n twin %+v", whole, twin)
	}
	if len(charged) == 0 || whole.counters.CoherenceLocal+whole.counters.CoherenceRemote == 0 {
		t.Fatalf("%d loads charged ahead, %d transfers; want both", len(charged), whole.counters.CoherenceLocal+whole.counters.CoherenceRemote)
	}
	slices.Sort(charged)
	instants := 0
	for i := len(charged) / 9; i < len(charged); i += len(charged) / 9 {
		for _, at := range []uint64{charged[i] - 1, charged[i]} {
			got, _ := run(false, at)
			want, _ := run(true, at)
			if !got.frozen || !reflect.DeepEqual(got, want) {
				t.Fatalf("crash at %d ns: plain %+v,\n twin %+v", at, got, want)
			}
			instants++
		}
	}
	t.Logf("%d events, %d loads charged ahead, %d coherence transfers; %d crash instants in charged stretches",
		whole.events, len(charged), whole.counters.CoherenceLocal+whole.counters.CoherenceRemote, instants)
}
