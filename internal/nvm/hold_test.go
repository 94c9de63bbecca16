package nvm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// holdRefusal is one effect on a held memory m (or on the spare memory p) and
// what it raises over {writer hold, reader hold} × {holder, another thread}:
// want is the panic under "owner"'s writer hold by the owner and by "other",
// then under "reader"'s reader hold by the reader and by "other"; "" where the
// effect is allowed.
type holdRefusal struct {
	name  string
	touch func(sys *System, m *Memory, f *Flusher, th *sim.Thread)
	want  [4]string
}

var holdRefusals = func() []holdRefusal {
	const priv, froz = `, private to thread "owner"`, `, frozen under thread "reader"`
	by := func(who, what, held string) string { return `thread "` + who + `" ` + what + ` m` + held }
	// Both holders may load; no other thread may.
	load := [4]string{"", by("other", "accessed", priv), "", by("other", "accessed", froz)}
	// Only the writer may store, flush or write back.
	write := [4]string{"", by("other", "accessed", priv), by("reader", "accessed", froz), by("other", "accessed", froz)}
	// Nobody may watch a held memory or hold it beside a writer, and a thread
	// holds it once.
	every := func(what string) [4]string {
		return [4]string{by("owner", what, priv), by("other", what, priv), by("reader", what, froz), by("other", what, froz)}
	}
	readers := every("held")
	readers[3] = "" // another reader joins
	const unheld = `thread "other" released m, which it does not hold`
	watched := func(who string) string { return `p has watchers and cannot be held by thread "` + who + `"` }
	return []holdRefusal{
		{"load", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Load(th, 0) }, load},
		{"load begin", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.LoadBegin(th, 0) }, load},
		{"store", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Store(th, 0, 1) }, write},
		{"store begin", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.StoreBegin(th, 0) }, write},
		{"cas", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CAS(th, 0, 7, 1) }, write},
		{"cas begin", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.CASBegin(th, 0) }, write},
		{"flush", func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLine(th, m, 0) }, write},
		{"flush sync", func(_ *System, m *Memory, f *Flusher, th *sim.Thread) { f.FlushLineSync(th, m, 0) }, write},
		{"flush region", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushRegion(th, 0, 8) }, write},
		{"flush all dirty", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.FlushAllDirty(th) }, write},
		{"wbinvd", func(sys *System, m *Memory, _ *Flusher, th *sim.Thread) { sys.WBINVD(th, m) }, write},
		{"watch", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Watch(th, 0) }, every("watched")},
		{"hold write", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Hold(th, true) }, every("held")},
		{"hold read", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Hold(th, false) }, readers},
		{"release", func(_ *System, m *Memory, _ *Flusher, th *sim.Thread) { m.Release(th) }, [4]string{"", unheld, "", unheld}},
		{"hold watched", func(sys *System, _ *Memory, _ *Flusher, th *sim.Thread) {
			p := sys.Memory("p")
			if _, ok := p.Watch(th, 0); !ok {
				panic("p refused the watch")
			}
			p.Hold(th, false)
		}, [4]string{watched("owner"), watched("other"), watched("reader"), watched("other")}},
	}
}()

// Only its owner may touch a memory a writer holds, and even the owner may
// not watch it or hold it again (holdRefusals' writer columns).
func TestPrivateMemoryRefusesForeignAccess(t *testing.T) { testHoldRefusals(t, true) }

// Nobody stores to, flushes, writes back or watches a memory readers hold,
// and only its holders load it (holdRefusals' reader columns).
func TestFrozenMemoryRefusesWriters(t *testing.T) { testHoldRefusals(t, false) }

// testHoldRefusals runs every holdRefusal under one kind of hold, once by the
// holder ("holder <name>") and once by another thread. A clone or a recovered
// machine does not carry the hold.
func testHoldRefusals(t *testing.T, write bool) {
	holder, col := "reader", 2
	if write {
		holder, col = "owner", 0
	}
	for _, tc := range holdRefusals {
		for _, offender := range []string{holder, "other"} {
			name, want := tc.name, tc.want[col+1]
			if offender == holder {
				name, want = "holder "+tc.name, tc.want[col]
			}
			t.Run(name, func(t *testing.T) {
				sch := sim.New(0)
				sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
				m := sys.NewMemory("m", NVM, 0, 64)
				sys.NewMemory("p", NVM, 0, 64)
				f := sys.NewFlusher()
				sch.Spawn("writer", 0, 0, func(th *sim.Thread) { m.Store(th, 0, 7) })
				sch.Spawn(holder, 0, 5, func(th *sim.Thread) {
					m.Hold(th, write)
					if v := m.Load(th, 0); v != 7 {
						t.Errorf("holder reads %d, want 7", v)
					}
					if offender == holder {
						tc.touch(sys, m, f, th)
					}
					th.Step(100)
				})
				if offender != holder {
					sch.Spawn("other", 0, 10, func(th *sim.Thread) { tc.touch(sys, m, f, th) })
				}
				var rc any
				func() {
					defer func() { rc = recover() }()
					sch.Run()
				}()
				if want == "" && rc != nil || want != "" && rc != `sim thread "`+offender+`": nvm: `+want {
					t.Fatalf("Run panicked with %v, want %q", rc, want)
				}

				// The crashed machine's memory stays held; a clone's copy and
				// a recovered one are shared, so anyone may store to them.
				for what, c := range map[string]*System{"clone": sys.Clone(sim.New(0)), "recovered": sys.Recover(sim.New(0))} {
					c.Scheduler().Spawn("other", 0, 0, func(th *sim.Thread) {
						cm := c.Memory("m")
						cm.Store(th, 8, 1)
						if what == "clone" && cm.Load(th, 0) == 0 {
							t.Errorf("clone lost the writer's store")
						}
					})
					c.Scheduler().Run()
				}
			})
		}
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
			heap.Hold(th, true)
			for i := uint64(0); i < 40; i++ {
				for j := uint64(0); j < 6; j++ {
					off := (i*6 + j) % heap.Words()
					heap.Store(th, off, heap.Load(th, off)+i)
				}
				shared.Store(th, 8*(1+i%3), i) // a line the other threads write
			}
			sys.WBINVD(th, heap)
			sys.NewFlusher().Fence(th)
			heap.Release(th)
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
					heap.Hold(th, false)
					var sum uint64
					for i := uint64(0); i < 24; i++ {
						sum += heap.Load(th, ((w+round*5+i*3)%64)*WordsPerLine+i%WordsPerLine)
						if th.Ahead() {
							charged = append(charged, th.Clock())
						}
					}
					heap.Release(th)
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
