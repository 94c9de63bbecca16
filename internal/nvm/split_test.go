package nvm

import (
	"reflect"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// wakeLogPoller is a wordPoller that logs every wake: the scheduler's event
// count and its own clock when Wake called Unpark. The event count tells a
// wake at a write's first half from one at its second, one Step later.
type wakeLogPoller struct {
	wordPoller
	sch   *sim.Scheduler
	wakes [][2]uint64
}

func (p *wakeLogPoller) Unpark(t *sim.Thread) {
	events := reflect.ValueOf(p.sch).Elem().FieldByName("events").Uint()
	p.wakes = append(p.wakes, [2]uint64{events, t.Clock()})
	p.wordPoller.Unpark(t)
}

// splitRun is everything observable about one run of splitWorkload.
type splitRun struct {
	events           uint64
	clocks           []uint64
	results          []bool // every CAS's outcome
	data, persisted  []uint64
	owner, ownerNode []int32
	dstate           []uint8
	dirtyList        []uint64
	met              metrics.Counters
	accesses         []Access
	effects          []int // persist-effect hook calls, by thread
	polls            int
	parks            []uint64 // the watcher's clock at each park
	wakes            [][2]uint64
}

// splitWorkload runs two writers on different nodes over four lines of one
// memory — stores, CASes that hit and CASes that miss, with a third of the
// stores drawing a background write-back on NVM and the first writer leaving
// lines in its flusher's pending set — while a watcher waits for a word only
// the last store sets. Stores to the watched line's other words wake it over
// and over. split selects how the writers access the memory: the whole
// Store and CAS, or their Begin halves, the Step they price and their End
// halves. traced installs the access hook, under which the watcher never
// parks.
func splitWorkload(kind Kind, split, traced bool) splitRun {
	const watched = 28
	var res splitRun
	sch := sim.New(0)
	costs := sim.Costs{LocalAccess: 10, CoherenceLocal: 40, CoherenceRemote: 100, NVMStoreExtra: 2000, FlushLine: 50}
	sys := NewSystem(sch, Config{Costs: costs, BGFlushOneIn: 3, Seed: 5})
	sys.SetPersistEffectHook(func(thread int) { res.effects = append(res.effects, thread) })
	if traced {
		sys.SetAccessHook(func(a Access) { res.accesses = append(res.accesses, a) })
	}
	m := sys.NewMemory("m", kind, 0, 64)
	store := func(th *sim.Thread, off, v uint64) {
		if split {
			th.Step(m.StoreBegin(th, off))
			m.StoreEnd(th, off, v)
			return
		}
		m.Store(th, off, v)
	}
	cas := func(th *sim.Thread, off, old, new uint64) {
		var ok bool
		if split {
			th.Step(m.CASBegin(th, off))
			ok = m.CASEnd(th, off, old, new)
		} else {
			ok = m.CAS(th, off, old, new)
		}
		res.results = append(res.results, ok)
	}
	var ths []*sim.Thread
	for w := uint64(0); w < 2; w++ {
		ths = append(ths, sch.Spawn("writer", int(w), 0, func(th *sim.Thread) {
			var f *Flusher
			if kind == NVM && w == 0 {
				f = sys.NewFlusher()
			}
			for i := uint64(0); i < 48; i++ {
				off := (i*5 + w*3) % 32
				if off == watched {
					off++
				}
				switch i % 4 {
				case 0, 1:
					store(th, off, i+1)
				case 2:
					cur := m.Load(th, off)
					cas(th, off, cur, cur+7)
				case 3:
					cas(th, off, ^uint64(0), 1)
				}
				if f != nil && i%8 == 0 {
					f.FlushLine(th, m, off)
				}
				th.Step(i * 37 % 101)
			}
			if w == 0 {
				store(th, watched, 1)
			}
		}))
	}
	p := &wakeLogPoller{wordPoller: wordPoller{m: m, off: watched}, sch: sch}
	var watcher *sim.Thread
	p.parked = func() { res.parks = append(res.parks, watcher.Clock()) }
	watcher = sch.Spawn("watcher", 1, 0, func(th *sim.Thread) { th.Await(p) })
	ths = append(ths, watcher)
	sch.Run()

	res.events = sch.Events()
	for _, th := range ths {
		res.clocks = append(res.clocks, th.Clock())
	}
	lines := m.words / WordsPerLine
	res.data = dumpSlab(m.data, m.words)
	res.owner, res.ownerNode = dumpSlab(m.owner, lines), dumpSlab(m.ownerNode, lines)
	if kind == NVM {
		res.persisted, res.dstate = dumpSlab(m.persisted, m.words), dumpSlab(m.dstate, lines)
	}
	res.dirtyList = m.dirtyList
	res.met = sys.Metrics().Counters
	res.polls, res.wakes = p.polls, p.wakes
	return res
}

func dumpSlab[T any](s slab[T], n uint64) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = s.load(uint64(i))
	}
	return out
}

// TestSplitAccessesEqualWhole drives the same stores and CASes through Store
// and CAS and through their halves with the Step between them, and requires
// identical runs: events, clocks, CAS outcomes, both views, line owners,
// dirty state, metrics, the access and persist-effect hooks' traces, and the
// watcher's parks and wakes — each at the same event of the same half.
func TestSplitAccessesEqualWhole(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		traced bool
	}{
		{"volatile", Volatile, false},
		{"nvm", NVM, false},
		{"nvm-traced", NVM, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := splitWorkload(tc.kind, false, tc.traced)
			split := splitWorkload(tc.kind, true, tc.traced)
			if !reflect.DeepEqual(whole, split) {
				t.Fatalf("halves differ from the whole:\nwhole %+v\nsplit %+v", whole, split)
			}
			hits := 0
			for _, ok := range whole.results {
				if ok {
					hits++
				}
			}
			if hits == 0 || hits == len(whole.results) {
				t.Fatalf("%d of %d CASes hit: want both outcomes", hits, len(whole.results))
			}
			if tc.traced {
				if len(whole.accesses) == 0 || len(whole.parks) != 0 {
					t.Fatalf("%d accesses traced, %d parks: want a trace and no park", len(whole.accesses), len(whole.parks))
				}
			} else if len(whole.wakes) < 2 {
				t.Fatalf("%d parks, %d wakes: the watcher was not woken by the writes", len(whole.parks), len(whole.wakes))
			}
			if tc.kind == NVM && (whole.met.BGFlushes == 0 || len(whole.effects) <= int(whole.met.BGFlushes)) {
				t.Fatalf("%d background write-backs, %d persist effects: want both, and effects of pending lines",
					whole.met.BGFlushes, len(whole.effects))
			}
			t.Logf("%d events, %d CASes (%d hit), %d parks, %d wakes, %d accesses, %d persist effects",
				whole.events, len(whole.results), hits, len(whole.parks), len(whole.wakes), len(whole.accesses), len(whole.effects))
		})
	}
}
