package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// twinOps is worker tid's op mix: readPct percent reads, the rest inserts
// and deletes over a small shared key range, every update detectable when
// detect is set.
func twinOps(tid, n, readPct int, detect bool) []uc.Op {
	ops := make([]uc.Op, n)
	for i := range ops {
		k := uint64((tid*5 + i*3) % 29)
		switch {
		case (tid*37+i*61)%100 < readPct:
			ops[i] = uc.Get(k)
		case i%3 == 2:
			ops[i] = uc.Delete(k)
		default:
			ops[i] = uc.Insert(k, uint64(tid*1000+i))
		}
		if detect && ops[i].Code != uc.OpGet {
			ops[i].Invid = invidOf(tid, uint64(i))
		}
	}
	return ops
}

// twinAccess is one announced access of a traced run: the event index it
// was announced after, its thread and the thread's clock, whether it was
// announced on another thread's goroutine — a poll segment run inline — and
// the replica heap it touched, if any: 'p' for a persistent replica's, 'r'
// for a volatile one's.
type twinAccess struct {
	event  uint64
	thread int
	clock  uint64
	inline bool
	heap   byte
}

// twinResult is everything a worker phase leaves behind that the twin runs
// must agree on.
type twinResult struct {
	events    uint64
	frozen    bool
	clocks    []uint64
	results   [][]uint64
	stats     metrics.Snapshot
	persisted uint64 // PersistedFingerprint at the end of the phase
	// A crashed phase is recovered: the crash image, then the machine after
	// Recover.
	image, recovered uint64
}

// goid is the calling goroutine's id, parsed from its stack header.
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// twinRun is one run of runTwin's worker phase.
type twinRun struct {
	mode    Mode
	detect  bool
	readPct int
	chooser bool   // under a MinClock Chooser: Await's definition loop
	crashAt uint64 // CrashAtEvent, armed before Run
	// instant, if set, arms a crash at that virtual instant (CrashAtInstant).
	instant uint64
	bgOneIn uint64 // BGFlushOneIn; 0 is 256
	trace   bool   // install the access hook and return every access
}

// twinTally is what a run reports beside its twinResult: the accesses it
// traced, the waiters that parked, how many were parked at the crash
// instant, and whether a worker's operation on its replica ran ahead.
type twinTally struct {
	accesses      []twinAccess
	parks         uint64
	parkedAtCrash int
	charged       bool // some access charged ahead (sim.Thread.Charge)
	// A worker's read (under the read lock) or update (under the write
	// lock) on its volatile replica left it ahead.
	chargedRead, chargedWrite bool
}

// aheadObject is a replica's object that tells after each operation whether
// the thread that ran it has charged ahead since it last settled.
type aheadObject struct {
	uc.DataStructure
	after func(th *sim.Thread, readOnly bool)
}

func (o aheadObject) Execute(th *sim.Thread, code, a0, a1 uint64) uint64 {
	res := o.DataStructure.Execute(th, code, a0, a1)
	o.after(th, o.IsReadOnly(code))
	return res
}

// parkTally reads the scheduler's test-only park tally and the number of
// waiters parked right now, without waking any.
func parkTally(sch *sim.Scheduler) (parks uint64, parked int) {
	v := reflect.ValueOf(sch).Elem()
	return v.FieldByName("parks").Uint(), v.FieldByName("parked").Len()
}

// runTwin boots an engine with 8 workers on the 2×4 test topology, fills its
// map for a read-only mix, and runs one worker phase, under the built-in
// dispatch rule or under a MinClock Chooser — which runs Await's definition
// loop, no segment inline and no waiter parked.
func runTwin(t *testing.T, r twinRun) (twinResult, twinTally) {
	t.Helper()
	const workers, perWorker = 8, 24
	cfg := hashCfg(r.mode, workers, 64, 16)
	cfg.Detect = r.detect
	cfg.HeapWords = 1 << 14 // fingerprints walk every persistent heap
	bg := r.bgOneIn
	if bg == 0 {
		bg = 256
	}
	var tally twinTally
	obj := cfg.Factory
	cfg.Factory = func(th *sim.Thread, a *pmem.Allocator) uc.DataStructure {
		return aheadObject{obj(th, a), func(th *sim.Thread, readOnly bool) {
			// Thread 0 is the persistence thread; a worker runs operations
			// on its volatile replica only.
			if th.ID() != 0 && th.Ahead() {
				tally.chargedRead = tally.chargedRead || readOnly
				tally.chargedWrite = tally.chargedWrite || !readOnly
			}
		}}
	}
	w := newWorld(t, cfg, nvm.Config{Seed: 3, BGFlushOneIn: bg}, 1)
	if r.readPct == 100 {
		// A read-only mix reads a populated map, as closed_read does.
		fill := sim.New(0)
		w.sys.SetScheduler(fill)
		fill.Spawn("prefill", 0, 0, func(th *sim.Thread) {
			var ops []uc.Op
			for k := uint64(0); k < 29; k++ {
				ops = append(ops, uc.Insert(k, k))
			}
			w.p.Prefill(th, ops)
		})
		fill.Run()
	}

	sch := sim.New(0)
	if r.chooser {
		sch.SetChooser(minClockChooser{})
	}
	sch.CrashAtEvent(r.crashAt)
	w.sys.SetScheduler(sch)
	own := map[int]int{} // thread id → its own goroutine
	var ths []*sim.Thread
	if r.trace {
		w.sys.SetAccessHook(func(a nvm.Access) {
			var heap byte
			if i := strings.Index(a.Mem, "heap"); i > 0 {
				heap = a.Mem[i-1]
			}
			tally.accesses = append(tally.accesses, twinAccess{sch.Events(), a.Thread, ths[a.Thread].Clock(),
				goid() != own[a.Thread], heap})
		})
	}
	spawn := func(name string, node int, fn func(th *sim.Thread)) {
		ths = append(ths, sch.Spawn(name, node, 0, func(th *sim.Thread) {
			if r.trace {
				own[th.ID()] = goid()
			}
			fn(th)
		}))
	}
	spawn("persistence", cfg.Topology.PersistenceNode(), w.p.PersistenceLoop)
	res := twinResult{results: make([][]uint64, workers)}
	remaining := workers
	for tid := 0; tid < workers; tid++ {
		spawn("worker", cfg.Topology.NodeOf(tid), func(th *sim.Thread) {
			defer func() {
				if remaining--; remaining == 0 && !sch.Frozen() {
					w.p.StopPersistence(th)
				}
			}()
			for _, op := range twinOps(tid, perWorker, r.readPct, r.detect) {
				res.results[tid] = append(res.results[tid], w.p.Execute(th, tid, op))
			}
		})
	}
	if r.instant != 0 {
		sch.CrashAtInstant(r.instant, func() bool {
			_, tally.parkedAtCrash = parkTally(sch)
			return true
		})
	}
	sch.Run()
	w.sys.SetAccessHook(nil)
	tally.parks, _ = parkTally(sch)
	tally.charged = reflect.ValueOf(sch).Elem().FieldByName("pastNS").Uint() != 0

	res.events, res.frozen = sch.Events(), sch.Frozen()
	for _, th := range ths {
		res.clocks = append(res.clocks, th.Clock())
	}
	res.stats = w.p.Stats()
	res.persisted = w.sys.PersistedFingerprint()
	if res.frozen {
		recSch := sim.New(0)
		recSys := w.sys.Recover(recSch)
		res.image = recSys.PersistedFingerprint()
		var err error
		recSch.Spawn("recover", 0, 0, func(th *sim.Thread) { _, _, err = Recover(th, recSys, cfg) })
		recSch.Run()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		res.recovered = recSys.PersistedFingerprint()
	}
	return res, tally
}

type minClockChooser struct{}

func (minClockChooser) Choose(_ int, cands []sim.Candidate) int { return sim.MinClock(cands) }

// crashWindow returns the first window of event indexes, from the middle of
// a traced run on and at most 64 events wide, in which poll segments of three
// distinct waits run inline — a wait being one thread's inline accesses
// between two of its own. The window ends with the Step of the third wait's
// first inline access.
func crashWindow(accesses []twinAccess, events uint64) (lo, hi uint64, ok bool) {
	// wait numbers a thread's waits: its own accesses so far.
	wait := map[int]int{}
	for i, a := range accesses {
		if !a.inline {
			wait[a.thread]++
			continue
		}
		if a.event < events/2 {
			continue
		}
		type key struct{ thread, wait int }
		seen := map[key]bool{}
		own := map[int]int{}
		for _, b := range accesses[i:] {
			if b.event >= a.event+64 {
				break
			}
			if !b.inline {
				own[b.thread]++
				continue
			}
			if seen[key{b.thread, wait[b.thread] + own[b.thread]}] = true; len(seen) == 3 {
				return a.event, b.event + 2, true
			}
		}
	}
	return 0, 0, false
}

// stretchInstants returns crash instants inside stretches of replica-heap
// accesses, from the middle of a traced run on: for the first four pairs of
// consecutive accesses of one thread to heaps of the given kind ('p' or 'r')
// between which another thread ran, the second access's clock and the
// nanoseconds either side of it. Unhooked, the thread charges such a pair
// without a dispatch decision — the persistence thread its persistent
// replicas, a writer or a reader its volatile replica under the lock — so
// the cut lands inside a stretch it ran ahead.
func stretchInstants(accesses []twinAccess, events uint64, heap byte) []uint64 {
	var out []uint64
	stretch, other := map[int]bool{}, map[int]bool{} // per thread
	for _, a := range accesses {
		for th := range other {
			other[th] = other[th] || th != a.thread
		}
		if a.heap != heap {
			stretch[a.thread] = false
			continue
		}
		if stretch[a.thread] && other[a.thread] && a.event >= events/2 && len(out) < 12 {
			out = append(out, a.clock-1, a.clock, a.clock+1)
		}
		stretch[a.thread], other[a.thread] = true, false
	}
	return out
}

// Inline poll segments, parked waiters and accesses charged without a
// dispatch decision are indistinguishable from Await's definition loop and
// from Steps: for both persistent modes, with and without detectable
// execution, over an update-only, a half-read and a read-only mix, the run
// under the built-in rule — which parks waiters in every mix that has
// updates to wait for, and in which workers' operations on their volatile
// replicas run ahead, under the write lock and under the read lock as the mix
// has them — must end exactly where its Chooser twin (no run-ahead, no inline
// segment, no park, no Charge) ends: event count, every thread's clock,
// every op's result, the metrics and the persisted image. So must every crash
// armed inside a window in which at least three waits ran inline (found by a
// hooked run, which parks and charges ahead nothing), crashes armed at
// instants where waiters are parked, and crash instants swept through the
// persistence thread's apply stretches and through the workers' write and
// read stretches on their replicas — which they charge without a dispatch
// decision — with background write-backs at one store in eight, down to the
// crash image and the recovered machine.
func TestAwaitMatchesChooserTwin(t *testing.T) {
	for _, mode := range []Mode{Durable, Buffered} {
		for _, detect := range []bool{false, true} {
			for _, readPct := range []int{0, 50, 100} {
				name := fmt.Sprintf("%s/detect=%v/reads=%d%%", mode, detect, readPct)
				t.Run(name, func(t *testing.T) {
					base := twinRun{mode: mode, detect: detect, readPct: readPct}
					both := func(r twinRun) (got, want twinResult, tally twinTally) {
						got, tally = runTwin(t, r)
						r.chooser = true
						want, _ = runTwin(t, r)
						return got, want, tally
					}
					waits := readPct < 100 // a read-only mix waits for nothing
					plain, twin, tally := both(base)
					if !reflect.DeepEqual(plain, twin) {
						t.Fatalf("inline run differs from its Chooser twin:\n inline %+v\n   twin %+v", plain, twin)
					}
					if waits && tally.parks == 0 || !tally.charged {
						t.Fatalf("%d waiters parked, charged ahead: %v; want both", tally.parks, tally.charged)
					}
					if readPct > 0 && !tally.chargedRead || readPct < 100 && !tally.chargedWrite {
						t.Fatalf("a worker ran ahead on its replica under the read lock: %v, under the write lock: %v", tally.chargedRead, tally.chargedWrite)
					}
					hooked := base
					hooked.trace = true
					_, traced := runTwin(t, hooked)
					inline := 0
					for _, a := range traced.accesses {
						if a.inline {
							inline++
						}
					}
					lo, hi, ok := crashWindow(traced.accesses, plain.events)
					if waits && !ok {
						t.Fatalf("no crash window with three inline waits (%d inline accesses in all)", inline)
					}
					for at := lo; at < hi; at++ {
						r := base
						r.crashAt = at
						got, want, _ := both(r)
						if !got.frozen || !reflect.DeepEqual(got, want) {
							t.Fatalf("crash at event %d: inline run differs from its Chooser twin:\n inline %+v\n   twin %+v", at, got, want)
						}
					}
					end, parkedCrashes := plain.clocks[1], 0
					for i := uint64(1); i <= 4; i++ {
						r := base
						r.instant = end * i / 5
						got, want, ct := both(r)
						if !got.frozen || !reflect.DeepEqual(got, want) {
							t.Fatalf("crash at %d ns: parked run differs from its Chooser twin:\n parked %+v\n   twin %+v", r.instant, got, want)
						}
						if ct.parkedAtCrash > 0 {
							parkedCrashes++
						}
					}
					if waits && parkedCrashes == 0 {
						t.Fatal("no crash instant found a waiter parked")
					}
					applies := stretchInstants(traced.accesses, plain.events, 'p')
					if waits && len(applies) == 0 {
						t.Fatal("no apply stretch of the persistence thread that another thread interrupts")
					}
					replicas := stretchInstants(traced.accesses, plain.events, 'r')
					if len(replicas) == 0 {
						t.Fatal("no stretch of a worker on its replica that another thread interrupts")
					}
					for _, at := range append(applies, replicas...) {
						r := base
						r.instant, r.bgOneIn = at, 8
						got, want, _ := both(r)
						if !got.frozen || !reflect.DeepEqual(got, want) {
							t.Fatalf("crash at %d ns inside a heap stretch: run differs from its Chooser twin:\n plain %+v\n  twin %+v", at, got, want)
						}
					}
					t.Logf("%d events, %d parks, %d of %d accesses inline; crashed at every event of [%d, %d); %d of 4 crash instants found waiters parked; %d crash instants in apply stretches, %d in replica stretches",
						plain.events, tally.parks, inline, len(traced.accesses), lo, hi, parkedCrashes, len(applies), len(replicas))
				})
			}
		}
	}
}

// A warm wait allocates nothing: the worker's Wait is the engine's or the
// lock's, armed in place, and neither running its segments inline nor parking
// it and waking it costs an allocation — the parked set and the watch lists
// reuse their capacity. Two waits: the update's slot/lock wait, served by a
// combiner that holds the lock — every one of them parks — and the
// distributed reader–writer lock's, whose reader waits out a writer that in
// turn waits for the reader to drain; both take it through the replica's
// lock helpers, whose heap declarations allocate nothing either.
func TestUpdateWaitAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		minParks       uint64
		worker, server func(w *world, rep *replica, th *sim.Thread, done *bool)
	}{
		{"update", 51, func(w *world, rep *replica, th *sim.Thread, _ *bool) {
			if got := w.p.update(th, rep, 0, uc.Insert(1, 1)); got != 42 {
				t.Errorf("update = %d, want the served 42", got)
			}
		}, func(_ *world, rep *replica, th *sim.Thread, done *bool) {
			// The server holds the combiner lock, so the worker can only wait,
			// and serves its slot a few backoff rungs after it goes pending:
			// the worker parks while the server's long Step runs, and the
			// response wakes it.
			if !rep.combiner.TryAcquire(th) {
				t.Error("server could not take the combiner lock")
				return
			}
			var b sim.Backoff
			for !*done {
				if rep.ctrl.Load(th, rep.slotOff(0)+slotState) != slotPending {
					th.Step(b.Next(64))
					continue
				}
				th.Step(5000)
				rep.respond(th, 0, false, 42)
				b.Reset()
			}
		}},
		{"rwlock", 1, func(_ *world, rep *replica, th *sim.Thread, _ *bool) {
			rep.readLock(th, 0)
			th.Step(300)
			rep.readUnlock(th, 0)
		}, func(_ *world, rep *replica, th *sim.Thread, done *bool) {
			for !*done {
				rep.writeLock(th)
				th.Step(5000)
				rep.writeUnlock(th)
				th.Step(400)
			}
		}},
	} {
		w := newWorld(t, hashCfg(Volatile, 2, 256, 0), nvm.Config{}, 1)
		rep := w.p.reps[0]
		done := false
		var allocs float64
		var parks uint64
		sch := sim.New(0)
		w.sys.SetScheduler(sch)
		sch.Spawn("worker", 0, 0, func(th *sim.Thread) {
			allocs = testing.AllocsPerRun(50, func() {
				before, _ := parkTally(sch)
				tc.worker(w, rep, th, &done)
				after, _ := parkTally(sch)
				parks += after - before
			})
			done = true
		})
		sch.Spawn("server", 0, 0, func(th *sim.Thread) { tc.server(w, rep, th, &done) })
		sch.Run()
		if allocs != 0 {
			t.Fatalf("%s: a warm wait allocates %v times, want 0", tc.name, allocs)
		}
		if parks < tc.minParks {
			t.Fatalf("%s: the worker parked %d times in 51 waits, want at least %d", tc.name, parks, tc.minParks)
		}
		t.Logf("%s: %d parks in 51 waits", tc.name, parks)
	}
}
