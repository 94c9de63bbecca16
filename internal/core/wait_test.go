package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
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
// was announced after, its thread, and whether it was announced on another
// thread's goroutine — a poll segment run inline.
type twinAccess struct {
	event  uint64
	thread int
	inline bool
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
	// crashNowAt, if set, spawns a crasher thread after the workers that
	// calls CrashNow once its clock reaches it.
	crashNowAt uint64
	trace      bool // install the access hook and return every access
}

// twinTally is what a run reports beside its twinResult: the accesses it
// traced, the waiters that parked, and how many were parked when the crasher
// called CrashNow.
type twinTally struct {
	accesses      []twinAccess
	parks         uint64
	parkedAtCrash int
}

// parkTally reads the scheduler's test-only park tally and the number of
// waiters parked right now, without waking any.
func parkTally(sch *sim.Scheduler) (parks uint64, parked int) {
	v := reflect.ValueOf(sch).Elem()
	return v.FieldByName("parks").Uint(), v.FieldByName("parked").Len()
}

// runTwin boots an engine with 8 workers on the 2×4 test topology and runs
// one worker phase, under the built-in dispatch rule or under a MinClock
// Chooser — which runs Await's definition loop, no segment inline and no
// waiter parked.
func runTwin(t *testing.T, r twinRun) (twinResult, twinTally) {
	t.Helper()
	const workers, perWorker = 8, 24
	cfg := hashCfg(r.mode, workers, 64, 16)
	cfg.Detect = r.detect
	cfg.HeapWords = 1 << 14 // fingerprints walk every persistent heap
	w := newWorld(t, cfg, nvm.Config{Seed: 3, BGFlushOneIn: 256}, 1)

	sch := sim.New(0)
	if r.chooser {
		sch.SetChooser(minClockChooser{})
	}
	sch.CrashAtEvent(r.crashAt)
	w.sys.SetScheduler(sch)
	var tally twinTally
	own := map[int]int{} // thread id → its own goroutine
	if r.trace {
		w.sys.SetAccessHook(func(a nvm.Access) {
			tally.accesses = append(tally.accesses, twinAccess{sch.Events(), a.Thread, goid() != own[a.Thread]})
		})
	}
	var ths []*sim.Thread
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
	if r.crashNowAt != 0 {
		spawn("crasher", 0, func(th *sim.Thread) {
			for th.Clock() < r.crashNowAt {
				th.Step(250)
			}
			_, tally.parkedAtCrash = parkTally(sch)
			sch.CrashNow()
			th.Step(1)
		})
	}
	sch.Run()
	w.sys.SetAccessHook(nil)
	tally.parks, _ = parkTally(sch)

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

// Inline poll segments and parked waiters are indistinguishable from Await's
// definition loop: for both persistent modes, with and without detectable
// execution, over an update-only and a half-read mix, the run under the
// built-in rule — which parks waiters, every configuration at least once —
// must end exactly where its Chooser twin (no run-ahead, no inline segment,
// no park) ends: event count, every thread's clock, every op's result, the
// metrics and the persisted image. So must every crash armed inside a window
// in which at least three waits ran inline (found by a hooked run, which
// parks nothing), and a crasher's CrashNow at instants where waiters are
// parked, down to the crash image and the recovered machine.
func TestAwaitMatchesChooserTwin(t *testing.T) {
	for _, mode := range []Mode{Durable, Buffered} {
		for _, detect := range []bool{false, true} {
			for _, readPct := range []int{0, 50} {
				name := fmt.Sprintf("%s/detect=%v/reads=%d%%", mode, detect, readPct)
				t.Run(name, func(t *testing.T) {
					base := twinRun{mode: mode, detect: detect, readPct: readPct}
					both := func(r twinRun) (got, want twinResult, tally twinTally) {
						got, tally = runTwin(t, r)
						r.chooser = true
						want, _ = runTwin(t, r)
						return got, want, tally
					}
					plain, twin, tally := both(base)
					if !reflect.DeepEqual(plain, twin) {
						t.Fatalf("inline run differs from its Chooser twin:\n inline %+v\n   twin %+v", plain, twin)
					}
					if tally.parks == 0 {
						t.Fatal("no waiter parked")
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
					if !ok {
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
						r.crashNowAt = end * i / 5
						got, want, ct := both(r)
						if !got.frozen || !reflect.DeepEqual(got, want) {
							t.Fatalf("CrashNow at %d ns: parked run differs from its Chooser twin:\n parked %+v\n   twin %+v", r.crashNowAt, got, want)
						}
						if ct.parkedAtCrash > 0 {
							parkedCrashes++
						}
					}
					if parkedCrashes == 0 {
						t.Fatal("no CrashNow found a waiter parked")
					}
					t.Logf("%d events, %d parks, %d of %d accesses inline; crashed at every event of [%d, %d); %d of 4 CrashNow instants found waiters parked",
						plain.events, tally.parks, inline, len(traced.accesses), lo, hi, parkedCrashes)
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
// turn waits for the reader to drain.
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
			rep.rw.ReadLock(th, 0)
			th.Step(300)
			rep.rw.ReadUnlock(th, 0)
		}, func(_ *world, rep *replica, th *sim.Thread, done *bool) {
			for !*done {
				rep.rw.WriteLock(th)
				th.Step(5000)
				rep.rw.WriteUnlock(th)
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
