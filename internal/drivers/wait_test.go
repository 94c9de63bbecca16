package drivers

import (
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/gluc"
	"prepuc/internal/locks"
	"prepuc/internal/metrics"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

type minClock struct{}

func (minClock) Choose(_ int, cands []sim.Candidate) int { return sim.MinClock(cands) }

// twinPhase is everything a contended worker phase leaves behind that its two
// runs must agree on.
type twinPhase struct {
	events    uint64
	clocks    []uint64
	results   [][]uint64
	stats     metrics.Snapshot
	persisted uint64
}

// waitOps is worker w's mix over eight keys: reads, inserts and deletes.
func waitOps(w, n int) []uc.Op {
	ops := make([]uc.Op, n)
	for i := range ops {
		k := uint64((w*3 + i*5) % 8)
		switch (w + i) % 5 {
		case 0, 3:
			ops[i] = uc.Get(k)
		case 4:
			ops[i] = uc.Delete(k)
		default:
			ops[i] = uc.Insert(k, uint64(w*100+i))
		}
	}
	return ops
}

// runWaitPhase boots d and runs four workers on two nodes over waitOps, under
// the built-in rule or under a MinClock Chooser, which runs Await's
// definition loop: no segment inline, no waiter parked. It returns the phase
// and how many times a waiter parked.
func runWaitPhase(t *testing.T, d *uc.Driver, chooser bool) (twinPhase, uint64) {
	t.Helper()
	const workers, perWorker = 4, 200
	tp := numa.Topology{Nodes: 2, ThreadsPerNode: 2}
	sys, eng, err := Boot(d, nvm.Config{Costs: sim.DefaultCosts(), Seed: 3, BGFlushOneIn: 64}, nil)
	if err != nil {
		t.Fatalf("%s: boot: %v", d.Name, err)
	}
	sch := sim.New(0)
	if chooser {
		sch.SetChooser(minClock{})
	}
	sys.SetScheduler(sch)
	if d.SpawnAux != nil {
		d.SpawnAux()
	}
	ph := twinPhase{results: make([][]uint64, workers)}
	var ths []*sim.Thread
	live := workers
	for w := 0; w < workers; w++ {
		ths = append(ths, sch.Spawn("worker", tp.NodeOf(w), 0, func(th *sim.Thread) {
			for _, op := range waitOps(w, perWorker) {
				ph.results[w] = append(ph.results[w], eng.Execute(th, w, op))
			}
			if live--; live == 0 && d.StopAux != nil {
				d.StopAux(th)
			}
		}))
	}
	sch.Run()
	ph.events = sch.Events()
	for _, th := range ths {
		ph.clocks = append(ph.clocks, th.Clock())
	}
	ph.stats = sys.Metrics().Snapshot()
	ph.persisted = sys.PersistedFingerprint()
	return ph, reflect.ValueOf(sch).Elem().FieldByName("parks").Uint()
}

// Every construction waits through locks.Wait — core's waits, the
// reader–writer locks', CX-PUC's queue waits, SOFT's bucket and allocation
// locks, GL's global lock. Run contended under the built-in rule, where those
// waits run inline and park, each construction must end exactly where its
// MinClock Chooser twin ends: events, clocks, every result, the metrics and
// the persisted image. PREP-Buffered, SOFT and GL must have parked, and
// PREP-Buffered must have stalled on its flush boundary, one of the waits
// that parks. CX-PUC's queue waits never miss here: an enqueuer writes its
// entry right after the CAS that reserves it, before any helper that reserved
// a later entry reaches it.
func TestWaitsMatchChooserTwin(t *testing.T) {
	sz := ExploreScale()
	sz.Topology = numa.Topology{Nodes: 2, ThreadsPerNode: 2}
	sz.Workers = 4
	gl := func() *uc.Driver { return gluc.NewDriver(gluc.ConfigFor(sz)) }
	mustPark := map[string]bool{"PREP-Buffered": true, "SOFT": true, "GL": true}
	builders := []func() *uc.Driver{gl}
	for _, e := range All() {
		builders = append(builders, func() *uc.Driver { return e.New(sz) })
	}
	for _, mk := range builders {
		name := mk().Name
		t.Run(name, func(t *testing.T) {
			got, parks := runWaitPhase(t, mk(), false)
			want, _ := runWaitPhase(t, mk(), true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plain run differs from its Chooser twin:\n plain %+v\n  twin %+v", got, want)
			}
			if mustPark[name] && parks == 0 {
				t.Fatal("no waiter parked")
			}
			if name == "PREP-Buffered" && got.stats.FlushBoundaryStallNS == 0 {
				t.Fatal("no combiner stalled on the flush boundary")
			}
			t.Logf("%d events, %d parks", got.events, parks)
		})
	}
}

// spawnCrossedWaits spawns two threads on sch, each waiting on a word of m
// that only the other stores, after its own wait: a seeded deadlock.
func spawnCrossedWaits(sch *sim.Scheduler, m *nvm.Memory, start uint64) {
	var waits locks.Waits
	for i, name := range []string{"a", "b"} {
		mine, theirs := uint64(i)*nvm.WordsPerLine, uint64(1-i)*nvm.WordsPerLine
		sch.Spawn(name, 0, start, func(th *sim.Thread) {
			w := waits.Of(th)
			*w = locks.Wait{Mem: m, Off: mine, Want: 1, Cap: 64}
			th.Await(w)
			m.Store(th, theirs, 1)
		})
	}
}

// A seeded deadlock — two threads, each waiting on a word only the other
// stores after its own wait — ends the run with the verdict naming both
// threads and the lines they wait on, not a hang: Run panics with it, and
// through Probe it is the probe's error.
func TestDeadlockVerdict(t *testing.T) {
	const want = `sim: deadlock: "a" waits on m[line 0] ≥ 1; "b" waits on m[line 1] ≥ 1`
	machine := func() (*sim.Scheduler, *nvm.System, *nvm.Memory) {
		sch := sim.New(0)
		sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.DefaultCosts()})
		return sch, sys, sys.NewMemory("m", nvm.Volatile, 0, 2*nvm.WordsPerLine)
	}
	sch, _, m := machine()
	spawnCrossedWaits(sch, m, 0)
	var got any
	func() {
		defer func() { got = recover() }()
		sch.Run()
	}()
	if got != want {
		t.Fatalf("Run panicked with %#v, want %q", got, want)
	}

	_, sys, m := machine()
	err := Probe(sys, func(th *sim.Thread) { spawnCrossedWaits(th.Scheduler(), m, th.Clock()) })
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Probe returned %v, want an error ending in %q", err, want)
	}
}

// stallDriver is a construction whose boot (or, with inRecovery, whose
// recovery) waits on a word of a fresh memory "w" that nothing stores.
func stallDriver(inRecovery bool) *uc.Driver {
	stall := func(th *sim.Thread, sys *nvm.System) {
		w := sys.NewMemory("w", nvm.Volatile, 0, nvm.WordsPerLine)
		th.Await(&locks.Wait{Mem: w, Want: 1, Cap: 64})
	}
	d := &uc.Driver{Name: "stall"}
	d.Boot = func(th *sim.Thread, sys *nvm.System) (uc.UC, error) {
		if !inRecovery {
			stall(th, sys)
		}
		return nil, nil
	}
	d.Recover = func(th *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
		stall(th, sys)
		return nil, uc.RecoverInfo{}, nil
	}
	return d
}

// A boot or a recovery left with nothing but a wait nobody can serve ends
// with the deadlock verdict as the phase's error, not a panic. The verdict
// freezes the scheduler, and Recover must not take that for a crash inside
// the recovery: it returns after one attempt, no nested crash counted.
func TestPhaseDeadlockVerdict(t *testing.T) {
	ncfg := nvm.Config{Costs: sim.UnitCosts()}
	const wantBoot = `sim: deadlock: "boot" waits on w[line 0] ≥ 1`
	if _, _, err := Boot(stallDriver(false), ncfg, nil); err == nil || !strings.HasSuffix(err.Error(), wantBoot) {
		t.Fatalf("Boot returned %v, want an error ending in %q", err, wantBoot)
	}

	d := stallDriver(true)
	sys, _, err := Boot(d, ncfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantRecover = `sim: deadlock: "recover" waits on w[line 0] ≥ 1`
	rec, err := Recover(d, sys, nil, nil)
	if err == nil || !strings.HasSuffix(err.Error(), wantRecover) {
		t.Fatalf("Recover returned %v, want an error ending in %q", err, wantRecover)
	}
	if rec.Attempts != 1 || rec.NestedCrashes != 0 {
		t.Fatalf("Recover made %d attempts, %d nested crashes; want 1 and 0", rec.Attempts, rec.NestedCrashes)
	}
}
