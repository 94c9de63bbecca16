package nvm

import (
	"reflect"
	"slices"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// wordPoller waits for mem[off] != 0 in rounds of LoadBegin, LoadEnd and a
// backoff rung; as a sim.Parker its parking check is Memory.Watch.
type wordPoller struct {
	m      *Memory
	off    uint64
	read   bool // the next segment reads
	b      sim.Backoff
	polls  int
	parked func() // called on every park
}

func (p *wordPoller) Poll(t *sim.Thread) (uint64, bool) {
	if !p.read {
		p.read = true
		return p.m.LoadBegin(t, p.off), false
	}
	p.read = false
	p.polls++
	if p.m.LoadEnd(p.off) != 0 {
		return 0, true
	}
	return p.b.Next(64), false
}

func (p *wordPoller) Park(t *sim.Thread) bool {
	if p.read {
		return false
	}
	if v, ok := p.m.Watch(t, p.off); !ok || v != 0 {
		p.m.Unwatch(t)
		return false
	}
	p.parked()
	return true
}

func (p *wordPoller) Unpark(t *sim.Thread) { p.m.Unwatch(t) }

type minClock struct{}

func (minClock) Choose(_ int, cands []sim.Candidate) int { return sim.MinClock(cands) }

// A store is priced, and moves the line's ownership, before its Step and
// writes after it. Its long Step lets the pollers run rounds in between: the
// first load pays to make the writer's line shared again, the later ones cost
// the base price, so the pollers park — and only the wake at the write's half
// brings them back. Under the built-in rule the run must be its Chooser
// twin's, for a Store and for a CAS, and some poller must have parked between
// the halves of the final store.
func TestStoreWakesWatchersAtBothHalves(t *testing.T) {
	type result struct {
		events uint64
		clocks []uint64
		polls  []int
		met    metrics.Counters
	}
	run := func(cas, chooser bool) (res result, between int, parks uint64) {
		sch := sim.New(0)
		if chooser {
			sch.SetChooser(minClock{})
		}
		costs := sim.Costs{LocalAccess: 10, CoherenceLocal: 40, CoherenceRemote: 100, NVMStoreExtra: 2000}
		sys := NewSystem(sch, Config{Costs: costs})
		m := sys.NewMemory("m", NVM, 0, 64)
		const off = 3
		phase := 0 // 1 while the writer's final store is between its halves
		ths := []*sim.Thread{sch.Spawn("writer", 0, 0, func(th *sim.Thread) {
			// Stores to the line's other word keep moving it back to the
			// writer, between and during the pollers' rounds.
			for i := uint64(0); i < 24; i++ {
				m.Store(th, off+1, i)
				th.Step(37 * i % 101)
			}
			phase = 1
			if cas {
				m.CAS(th, off, 0, 1)
			} else {
				m.Store(th, off, 1)
			}
			phase = 2
			th.Step(10)
		})}
		var ps []*wordPoller
		for i := 0; i < 3; i++ {
			p := &wordPoller{m: m, off: off, parked: func() {
				if phase == 1 {
					between++
				}
			}}
			ps = append(ps, p)
			ths = append(ths, sch.Spawn("poller", 1, uint64(i), func(th *sim.Thread) { th.Await(p) }))
		}
		sch.Run()
		res.events = sch.Events()
		for _, th := range ths {
			res.clocks = append(res.clocks, th.Clock())
		}
		for _, p := range ps {
			res.polls = append(res.polls, p.polls)
		}
		res.met = sys.Metrics().Counters
		if len(m.watch) != 0 {
			t.Errorf("cas=%v chooser=%v: %d watches left after Run", cas, chooser, len(m.watch))
		}
		return res, between, reflect.ValueOf(sch).Elem().FieldByName("parks").Uint()
	}
	for _, cas := range []bool{false, true} {
		got, between, parks := run(cas, false)
		want, _, _ := run(cas, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cas=%v: parked run differs from its Chooser twin:\n parked %+v\n   twin %+v", cas, got, want)
		}
		if between == 0 {
			t.Fatalf("cas=%v: no poller parked between the final store's halves (%d parks)", cas, parks)
		}
		t.Logf("cas=%v: %d events, %d parks, %d between the halves", cas, got.events, parks, between)
	}
}

// A poller whose round straddles a store's ownership change must not park on
// the writer's line, even though its next rounds would miss just the same:
// its next load pays the transfer and makes the line shared. Here the writer
// takes the line between the poller's announce (216 ns) and its read (226
// ns); the poller then loses the baton to the reader (250 ns), which runs
// ahead to 600 ns and loads the line. The reader's load costs the base price
// only if the poller's transfer at 290 ns came first, as under the Chooser.
func TestWatchRefusesForeignOwnedLine(t *testing.T) {
	run := func(chooser bool) []uint64 {
		sch := sim.New(0)
		if chooser {
			sch.SetChooser(minClock{})
		}
		costs := sim.Costs{LocalAccess: 10, CoherenceLocal: 40, CoherenceRemote: 100, NVMStoreExtra: 2000}
		sys := NewSystem(sch, Config{Costs: costs})
		m := sys.NewMemory("m", NVM, 0, 64)
		const off = 3
		var loadCost uint64
		sch.Spawn("writer", 0, 0, func(th *sim.Thread) {
			th.Step(220)
			m.Store(th, off+1, 7)
			th.Step(3000)
			m.Store(th, off, 1)
		})
		sch.Spawn("reader", 1, 0, func(th *sim.Thread) {
			th.Step(250)
			th.Step(350)
			before := th.Clock()
			m.Load(th, off+2)
			loadCost = th.Clock() - before
		})
		p := &wordPoller{m: m, off: off, parked: func() {}}
		sch.Spawn("poller", 1, 0, func(th *sim.Thread) { th.Await(p) })
		sch.Run()
		return []uint64{loadCost, uint64(p.polls), sch.Events()}
	}
	got, want := run(false), run(true)
	if !slices.Equal(got, want) || want[0] != 10 {
		t.Fatalf("reader's load cost, polls, events = %v, want the Chooser twin's %v (a 10 ns load)", got, want)
	}
}
