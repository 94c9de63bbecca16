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

// runTwin boots an engine with 8 workers on the 2×4 test topology and runs
// one worker phase, under the built-in dispatch rule or under a MinClock
// Chooser — which runs Await's definition loop, no segment inline. With
// trace set it also returns every access, marked inline or not.
func runTwin(t *testing.T, mode Mode, detect bool, readPct int, chooser bool, crashAt uint64, trace bool) (twinResult, []twinAccess) {
	t.Helper()
	const workers, perWorker = 8, 24
	cfg := hashCfg(mode, workers, 64, 16)
	cfg.Detect = detect
	cfg.HeapWords = 1 << 14 // fingerprints walk every persistent heap
	w := newWorld(t, cfg, nvm.Config{Seed: 3, BGFlushOneIn: 256}, 1)

	sch := sim.New(0)
	if chooser {
		sch.SetChooser(minClockChooser{})
	}
	sch.CrashAtEvent(crashAt)
	w.sys.SetScheduler(sch)
	own := map[int]int{} // thread id → its own goroutine
	var accesses []twinAccess
	if trace {
		w.sys.SetAccessHook(func(a nvm.Access) {
			accesses = append(accesses, twinAccess{sch.Events(), a.Thread, goid() != own[a.Thread]})
		})
	}
	var ths []*sim.Thread
	spawn := func(name string, node int, fn func(th *sim.Thread)) {
		ths = append(ths, sch.Spawn(name, node, 0, func(th *sim.Thread) {
			if trace {
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
			for _, op := range twinOps(tid, perWorker, readPct, detect) {
				res.results[tid] = append(res.results[tid], w.p.Execute(th, tid, op))
			}
		})
	}
	sch.Run()
	w.sys.SetAccessHook(nil)

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
	return res, accesses
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

// Inline poll segments are indistinguishable from Await's definition loop:
// for both persistent modes, with and without detectable execution, over an
// update-only and a half-read mix, the run under the built-in rule must end
// exactly where its Chooser twin (no run-ahead, no inline segment) ends —
// event count, every thread's clock, every op's result, the metrics and the
// persisted image — and so must every crash armed inside a window in which
// at least three waits ran inline, down to the crash image and the recovered
// machine.
func TestAwaitMatchesChooserTwin(t *testing.T) {
	for _, mode := range []Mode{Durable, Buffered} {
		for _, detect := range []bool{false, true} {
			for _, readPct := range []int{0, 50} {
				name := fmt.Sprintf("%s/detect=%v/reads=%d%%", mode, detect, readPct)
				t.Run(name, func(t *testing.T) {
					plain, accesses := runTwin(t, mode, detect, readPct, false, 0, true)
					twin, _ := runTwin(t, mode, detect, readPct, true, 0, false)
					if !reflect.DeepEqual(plain, twin) {
						t.Fatalf("inline run differs from its Chooser twin:\n inline %+v\n   twin %+v", plain, twin)
					}
					inline := 0
					for _, a := range accesses {
						if a.inline {
							inline++
						}
					}
					lo, hi, ok := crashWindow(accesses, plain.events)
					if !ok {
						t.Fatalf("no crash window with three inline waits (%d inline accesses in all)", inline)
					}
					for at := lo; at < hi; at++ {
						got, _ := runTwin(t, mode, detect, readPct, false, at, false)
						want, _ := runTwin(t, mode, detect, readPct, true, at, false)
						if !got.frozen || !reflect.DeepEqual(got, want) {
							t.Fatalf("crash at event %d: inline run differs from its Chooser twin:\n inline %+v\n   twin %+v", at, got, want)
						}
					}
					t.Logf("%d events, %d of %d accesses inline; crashed at every event of [%d, %d)",
						plain.events, inline, len(accesses), lo, hi)
				})
			}
		}
	}
}

// A warm update wait allocates nothing: the worker's waiter is the engine's,
// armed in place, and parking it costs the scheduler no allocation either.
func TestUpdateWaitAllocatesNothing(t *testing.T) {
	w := newWorld(t, hashCfg(Volatile, 2, 256, 0), nvm.Config{}, 1)
	rep := w.p.reps[0]
	so := rep.slotOff(0)
	done := false
	var allocs float64
	sch := sim.New(0)
	w.sys.SetScheduler(sch)
	sch.Spawn("worker", 0, 0, func(th *sim.Thread) {
		allocs = testing.AllocsPerRun(50, func() {
			if got := w.p.update(th, rep, 0, uc.Insert(1, 1)); got != 42 {
				t.Errorf("update = %d, want the served 42", got)
			}
		})
		done = true
	})
	// The server holds the combiner lock, so the worker can only wait, and
	// serves its slot a few backoff rungs after it goes pending.
	sch.Spawn("server", 0, 0, func(th *sim.Thread) {
		if !rep.combiner.TryAcquire(th) {
			t.Error("server could not take the combiner lock")
			return
		}
		var b sim.Backoff
		for !done {
			if rep.ctrl.Load(th, so+slotState) != slotPending {
				b.Spin(th, 64)
				continue
			}
			th.Step(5000)
			rep.respond(th, 0, false, 42)
			b.Reset()
		}
	})
	sch.Run()
	if allocs != 0 {
		t.Fatalf("a warm update wait allocates %v times, want 0", allocs)
	}
}
