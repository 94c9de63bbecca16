package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// threadRand is a thread body's private random source, a function of the
// thread id alone: the scheduler has none to hand out.
func threadRand(th *Thread) *rand.Rand { return rand.New(rand.NewSource(int64(th.ID()))) }

func TestSingleThreadRunsToCompletion(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Step(10)
		}
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("thread did not run")
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var final uint64
	s.Spawn("w", 0, 0, func(th *Thread) {
		th.Step(7)
		th.Step(3)
		final = th.Clock()
	})
	s.Run()
	if final != 10 {
		t.Fatalf("clock = %d, want 10", final)
	}
}

// TestBackoffLadder pins the step sequence every wait and retry in the repo
// charges: 16 doubling to the call's cap, restarted by Reset.
func TestBackoffLadder(t *testing.T) {
	s := New(1)
	var got []uint64
	s.Spawn("w", 0, 0, func(th *Thread) {
		var b Backoff
		spin := func(cap uint64) {
			before := th.Clock()
			th.Step(b.Next(cap))
			got = append(got, th.Clock()-before)
		}
		for i := 0; i < 4; i++ {
			spin(64)
		}
		spin(256) // the cap bounds the next rung, not the one charged now
		b.Reset()
		spin(64)
	})
	s.Run()
	if want := []uint64{16, 32, 64, 64, 64, 16}; !slices.Equal(got, want) {
		t.Fatalf("backoff steps = %v, want %v", got, want)
	}
}

// No rung is above the cap, whether or not the cap is a rung of the ladder.
func TestBackoffNextClampsToCap(t *testing.T) {
	for _, tc := range []struct {
		cap  uint64
		want []uint64
	}{
		{8, []uint64{8, 8, 8}},
		{16, []uint64{16, 16, 16}},
		{1000, []uint64{16, 32, 64, 128, 256, 512, 1000, 1000}},
		{1024, []uint64{16, 32, 64, 128, 256, 512, 1024, 1024}},
	} {
		var b Backoff
		var got []uint64
		for range tc.want {
			got = append(got, b.Next(tc.cap))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("cap %d: rungs %v, want %v", tc.cap, got, tc.want)
		}
	}
}

func TestMinClockThreadRunsFirst(t *testing.T) {
	// Two threads with different step costs: the cheap-step thread must
	// complete more steps in the same virtual window.
	s := New(1)
	var order []int
	s.Spawn("slow", 0, 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Step(100)
			order = append(order, 0)
		}
	})
	s.Spawn("fast", 0, 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Step(10)
			order = append(order, 1)
		}
	})
	s.Run()
	// fast's steps land at t=10,20,30; slow's at 100,200,300. All fast
	// entries must precede all slow entries except slow's first step which
	// happens at t=100 after fast finished (fast done by t=30).
	want := []int{1, 1, 1, 0, 0, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		s := New(42)
		var order []int
		for w := 0; w < 4; w++ {
			w := w
			s.Spawn("w", 0, 0, func(th *Thread) {
				rng := threadRand(th)
				for i := 0; i < 50; i++ {
					th.Step(uint64(rng.Intn(20) + 1))
					order = append(order, w)
				}
			})
		}
		s.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	s := New(1)
	var first int
	recorded := false
	for w := 0; w < 3; w++ {
		w := w
		s.Spawn("w", 0, 0, func(th *Thread) {
			th.Step(5)
			if !recorded {
				first = w
				recorded = true
			}
		})
	}
	s.Run()
	if first != 0 {
		t.Fatalf("first completed step by thread %d, want 0 (lowest ID wins ties)", first)
	}
}

func TestMutualExclusionOfSteps(t *testing.T) {
	// Plain (non-atomic) increments of a shared counter must not be lost:
	// the scheduler guarantees only one thread runs at a time.
	s := New(7)
	counter := 0
	const perThread = 1000
	const nThreads = 8
	for w := 0; w < nThreads; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < perThread; i++ {
				th.Step(1)
				counter++
			}
		})
	}
	s.Run()
	if counter != perThread*nThreads {
		t.Fatalf("counter = %d, want %d", counter, perThread*nThreads)
	}
}

func TestCrashAtEventUnwindsAllThreads(t *testing.T) {
	s := New(1)
	s.CrashAtEvent(500)
	completed := 0
	crashed := 0
	for w := 0; w < 4; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					if !Crashed(r) {
						panic(r)
					}
					crashed++
				}
			}()
			for i := 0; i < 1000; i++ {
				th.Step(1)
			}
			completed++
		})
	}
	s.Run()
	if crashed != 4 {
		t.Fatalf("crashed = %d, want 4", crashed)
	}
	if completed != 0 {
		t.Fatalf("completed = %d, want 0", completed)
	}
	if !s.Frozen() {
		t.Fatal("scheduler not frozen after crash")
	}
}

func TestCrashNowFreezesOthers(t *testing.T) {
	s := New(1)
	crashed := 0
	s.Spawn("killer", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
			if r := recover(); r != nil {
				_ = r
			}
		}()
		th.Step(1)
		s.CrashNow()
		defer func() { recover() }()
		th.Step(1) // will panic Crash{}
	})
	for w := 0; w < 3; w++ {
		s.Spawn("victim", 0, 0, func(th *Thread) {
			defer func() {
				if Crashed(recover()) {
					crashed++
				}
			}()
			for i := 0; i < 1000; i++ {
				th.Step(1)
			}
		})
	}
	s.Run()
	if crashed != 3 {
		t.Fatalf("crashed victims = %d, want 3", crashed)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New(1)
	childRan := false
	s.Spawn("parent", 0, 0, func(th *Thread) {
		th.Step(1)
		s.Spawn("child", 1, th.Clock(), func(c *Thread) {
			c.Step(1)
			childRan = true
		})
		for i := 0; i < 10; i++ {
			th.Step(1)
		}
	})
	s.Run()
	if !childRan {
		t.Fatal("dynamically spawned thread did not run")
	}
}

func TestThreadAccessors(t *testing.T) {
	s := New(3)
	s.Spawn("alpha", 2, 100, func(th *Thread) {
		if th.name != "alpha" {
			t.Errorf("name = %q", th.name)
		}
		if th.Node() != 2 {
			t.Errorf("Node = %d", th.Node())
		}
		if th.Clock() != 100 {
			t.Errorf("start Clock = %d", th.Clock())
		}
		if th.Scheduler() != s {
			t.Error("Scheduler mismatch")
		}
		if th.ID() != 0 {
			t.Errorf("ID = %d", th.ID())
		}
		th.Step(5)
	})
	s.Run()
}

func TestEventsCounted(t *testing.T) {
	s := New(1)
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 25; i++ {
			th.Step(1)
		}
	})
	s.Run()
	if got := s.Events(); got != 25 {
		t.Fatalf("Events = %d, want 25", got)
	}
}

func TestZeroCostStepsRoundRobin(t *testing.T) {
	// With zero costs, ties are broken by ID so execution must alternate
	// deterministically and still terminate.
	s := New(1)
	total := 0
	for w := 0; w < 3; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < 10; i++ {
				th.Step(0)
				total++
			}
		})
	}
	s.Run()
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

func TestDefaultCostsOrdering(t *testing.T) {
	c := DefaultCosts()
	if c.CoherenceRemote <= c.CoherenceLocal {
		t.Error("a cross-socket line transfer should cost more than a local one")
	}
	if c.WBINVDBase <= c.FlushSync {
		t.Error("WBINVD should dwarf a single line flush")
	}
	if c.FlushSync <= c.FlushLine {
		t.Error("synchronous flush should cost more than async issue")
	}
}

func TestManyThreadsStress(t *testing.T) {
	s := New(99)
	const n = 64
	counts := make([]int, n)
	for w := 0; w < n; w++ {
		w := w
		s.Spawn("w", w%4, 0, func(th *Thread) {
			rng := threadRand(th)
			for i := 0; i < 200; i++ {
				th.Step(uint64(1 + rng.Intn(5)))
				counts[w]++
			}
		})
	}
	s.Run()
	for w, c := range counts {
		if c != 200 {
			t.Fatalf("thread %d made %d steps, want 200", w, c)
		}
	}
}

func TestCrashAfterRelative(t *testing.T) {
	// Armed mid-run, after 10 events, at five events from now: the 15th Step
	// must be the one that freezes.
	s := New(1)
	steps := 0
	s.Spawn("w", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
		}()
		for i := 0; i < 100; i++ {
			if i == 10 {
				s.CrashAtEvent(s.Events() + 5)
			}
			th.Step(1)
			steps++
		}
	})
	s.Run()
	if !s.Frozen() {
		t.Fatal("scheduler not frozen")
	}
	if steps != 14 {
		t.Fatalf("completed %d steps before the crash, want 14 (crash on the 15th)", steps)
	}
}

func TestCrashAfterZeroDisarms(t *testing.T) {
	s := New(1)
	s.CrashAtEvent(5)
	done := false
	s.Spawn("w", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
		}()
		s.CrashAtEvent(0) // disarm before the crash fires
		for i := 0; i < 20; i++ {
			th.Step(1)
		}
		done = true
	})
	s.Run()
	if s.Frozen() || !done {
		t.Fatal("CrashAtEvent(0) did not disarm the pending crash")
	}
}

// A bug panic inside a simulated thread ends in that thread: it is recorded,
// the machine is frozen so every other thread unwinds with Crash{}, and Run
// re-raises it on the caller's goroutine with the thread's name prefixed
// once. The culprit panics at the top of a four-deep resume chain, and the
// bystander directly below it recovers everything: with resumes nested in
// thread frames, a panic crossing the switch would be swallowed there. The
// second case raises the panic after the culprit's body returned, inside its
// exit handoff: the chooser returns an out-of-range index there.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		culprit func()
		chooser func(s *Scheduler) Chooser
		want    string
	}{
		{name: "thread body", culprit: func() { panic("boom 42") },
			want: `sim thread "culprit": boom 42`},
		{name: "exit handoff", culprit: func() {},
			chooser: func(s *Scheduler) Chooser {
				return chooserFunc(func(caller int, cands []Candidate) int {
					if caller == -1 && s.events > 0 {
						return len(cands) // a, b and the bystander are waiting
					}
					return MinClock(cands)
				})
			},
			want: `sim thread "culprit": sim: chooser returned index 3 of 3 candidates`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			if tc.chooser != nil {
				s.SetChooser(tc.chooser(s))
			}
			var ths []*Thread
			var seen []any // everything the bystander recovered
			depthAtPanic := 0
			spawn := func(name string, start uint64, fn func(*Thread)) {
				ths = append(ths, s.Spawn(name, 0, start, fn))
			}
			// Staggered starts: each thread's first Step overshoots the next one's
			// start clock, so each resumes the next: Run → a → b → bystander → culprit.
			for i, name := range []string{"a", "b"} {
				spawn(name, uint64(10*i), func(th *Thread) {
					for j := 0; j < 100; j++ {
						th.Step(100)
					}
				})
			}
			spawn("bystander", 20, func(th *Thread) {
				for j := 0; j < 3; j++ {
					func() {
						defer func() { seen = append(seen, recover()) }()
						th.Step(100)
					}()
				}
			})
			spawn("culprit", 30, func(th *Thread) {
				th.Step(5)
				depthAtPanic = chainDepth(ths)
				tc.culprit()
			})
			var got any
			func() {
				defer func() { got = recover() }()
				s.Run()
			}()
			if got != tc.want {
				t.Fatalf("Run panicked with %#v, want %q", got, tc.want)
			}
			if depthAtPanic != 4 {
				t.Fatalf("culprit panicked at chain depth %d, want 4", depthAtPanic)
			}
			if len(seen) != 3 {
				t.Fatalf("bystander recovered %d values, want 3", len(seen))
			}
			for _, r := range seen {
				if !Crashed(r) {
					t.Fatalf("bystander recovered %#v, want only Crash{}", r)
				}
			}
			if d := chainDepth(ths); d != 0 || s.live != 0 {
				t.Fatalf("after Run: %d threads active, %d live", d, s.live)
			}
		})
	}
}

// chainDepth counts the threads on the resume chain.
func chainDepth(ths []*Thread) int {
	n := 0
	for _, th := range ths {
		if th.active {
			n++
		}
	}
	return n
}

// Every thread's coroutine must be gone when Run returns: after a clean run,
// after a crash that unwinds parked and never-dispatched threads, after a bug
// panic in one thread, and for threads spawned from a running thread.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 600; i++ {
		s := New(int64(i))
		if i%3 == 1 {
			s.CrashAtEvent(uint64(20 + i%50))
		}
		for w := 0; w < 4; w++ {
			s.Spawn("w", 0, uint64(w*40), func(th *Thread) {
				rng := threadRand(th)
				th.Step(3)
				s.Spawn("child", 1, th.Clock(), func(c *Thread) {
					for j := 0; j < 10; j++ {
						c.Step(2)
					}
				})
				for j := 0; j < 30; j++ {
					th.Step(uint64(1 + rng.Intn(4)))
					if i%3 == 2 && th.ID() == 2 && j == 10+i%15 {
						panic("bug")
					}
				}
			})
		}
		var bug any
		func() {
			defer func() { bug = recover() }()
			s.Run()
		}()
		if (bug != nil) != (i%3 == 2) || s.Frozen() != (i%3 != 0) {
			t.Fatalf("scheduler %d: Run panicked with %v, frozen = %v", i, bug, s.Frozen())
		}
	}
	// Not ==: the previous test's runner goroutine may still have been
	// exiting when base was read. A leak would be one goroutine per thread.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 600 schedulers (4800 threads), %d before", n, base)
	}
}

// Two threads that hand off on every Step — ring producer and consumer, worker
// and combiner — alternate between one resume and one yield: one coroutine
// switch per handoff, where a dispatcher in the middle made it two.
func TestPingPongIsOneSwitchPerHandoff(t *testing.T) {
	const steps = 100000
	s := New(1)
	for w := 0; w < 2; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < steps; i++ {
				th.Step(1)
			}
		})
	}
	s.Run()
	if s.handoffs < 2*steps-2 {
		t.Fatalf("%d handoffs in %d steps: not a ping-pong", s.handoffs, 2*steps)
	}
	if s.switches > s.handoffs+2 {
		t.Fatalf("%d switches for %d handoffs, want at most handoffs+2", s.switches, s.handoffs)
	}
}

// Whatever the schedule, a resume is undone by at most one yield or exit, so
// transfer never spends more than the two switches per handoff a central
// dispatcher did; the chain holds each live thread at most once, the baton
// holder is on it, and it is empty when Run returns.
func TestSwitchesNeverExceedTwicePerHandoff(t *testing.T) {
	type scenario struct {
		name    string
		threads int
		cost    func(rng *rand.Rand) uint64
		// What the first thread to find itself at least three links up the
		// chain, a hundred steps in, does there: spawn two children, or arm a
		// crash for the very next event.
		spawn, crash bool
		minDepth     int // the chain must get at least this deep
	}
	equal := func(*rand.Rand) uint64 { return 3 }
	random := func(rng *rand.Rand) uint64 {
		if rng.Intn(16) == 0 {
			return 300
		}
		return uint64(1 + rng.Intn(4))
	}
	for _, sc := range []scenario{
		{name: "round-robin", threads: 8, cost: equal, minDepth: 8},
		{name: "random-costs", threads: 16, cost: random, minDepth: 4},
		{name: "spawn-from-deep-chain", threads: 16, cost: random, spawn: true, minDepth: 4},
		{name: "crash-in-deep-chain", threads: 16, cost: random, crash: true, minDepth: 4},
	} {
		t.Run(sc.name, func(t *testing.T) {
			s := New(5)
			var ths []*Thread
			maxDepth, markDepth, crashDepth := 0, 0, 0
			violation := "" // reported after Run: check runs on the threads' coroutines
			check := func(th *Thread) int {
				d := chainDepth(ths)
				if violation == "" && (!th.active || d > s.live) {
					violation = fmt.Sprintf("event %d: baton holder active = %v, chain depth %d, %d live threads",
						s.events, th.active, d, s.live)
				}
				maxDepth = max(maxDepth, d)
				return d
			}
			var body func(th *Thread)
			body = func(th *Thread) {
				defer func() {
					if r := recover(); r != nil {
						if !Crashed(r) {
							panic(r)
						}
						if crashDepth == 0 {
							crashDepth = check(th) // first to unwind: the thread whose Step froze
						}
					}
				}()
				rng := threadRand(th)
				for i := 1; i <= 300; i++ {
					th.Step(sc.cost(rng))
					d := check(th)
					if (sc.spawn || sc.crash) && markDepth == 0 && i >= 100 && d >= 3 {
						markDepth = d
						if sc.crash {
							s.CrashAtEvent(s.Events() + 1)
						}
						for c := 0; sc.spawn && c < 2; c++ {
							ths = append(ths, s.Spawn("child", 1, th.Clock(), body))
						}
					}
				}
			}
			for w := 0; w < sc.threads; w++ {
				ths = append(ths, s.Spawn("w", w%2, 0, body))
			}
			s.Run()
			if violation != "" {
				t.Fatal(violation)
			}
			if s.Frozen() != sc.crash || (sc.spawn || sc.crash) && markDepth < 3 || sc.crash && crashDepth != markDepth {
				t.Fatalf("frozen = %v, chain depth %d where the spawn or crash was triggered, %d at the crash",
					s.Frozen(), markDepth, crashDepth)
			}
			if limit := 2*s.handoffs + uint64(len(ths)); s.switches > limit {
				t.Fatalf("%d switches for %d handoffs and %d threads, want at most %d",
					s.switches, s.handoffs, len(ths), limit)
			}
			if d := chainDepth(ths); d != 0 || s.live != 0 {
				t.Fatalf("after Run: %d threads active, %d live", d, s.live)
			}
			if maxDepth < sc.minDepth {
				t.Fatalf("chain never deeper than %d, want at least %d", maxDepth, sc.minDepth)
			}
			t.Logf("%d handoffs, %d switches (%.2f per handoff), max chain depth %d",
				s.handoffs, s.switches, float64(s.switches)/float64(s.handoffs), maxDepth)
		})
	}
}

// A thread whose first dispatch happens after the freeze — spawned before Run
// or from a running thread — exits without running fn.
func TestFirstDispatchOnFrozenSchedulerSkipsFn(t *testing.T) {
	s := New(1)
	ran := false
	late := func(*Thread) { ran = true }
	s.Spawn("killer", 0, 0, func(th *Thread) {
		s.CrashNow()
		s.Spawn("child", 0, 0, late)
	})
	s.Spawn("late", 0, 100, late)
	s.Run()
	if ran {
		t.Fatal("fn ran on a thread first dispatched after the freeze")
	}
	if !s.Frozen() {
		t.Fatal("scheduler not frozen")
	}
}

// The two dispatch paths — run-ahead and a chooser answering MinClock, the
// path the explorer runs on — must drive one program through the identical
// schedule, to completion and into a mid-run crash alike. Sixteen threads, so
// that the handoffs run over resume chains many links deep.
func TestDispatchModesSameTrace(t *testing.T) {
	type ev struct {
		id    int
		clock uint64
	}
	type final struct {
		events uint64
		frozen bool
		clocks []uint64
	}
	run := func(chooser bool, crashAt uint64) ([]ev, final) {
		s := New(11)
		if chooser {
			s.SetChooser(chooserFunc(func(_ int, cands []Candidate) int { return MinClock(cands) }))
		}
		s.CrashAtEvent(crashAt)
		var trace []ev
		var ths []*Thread
		for w := 0; w < 16; w++ {
			ths = append(ths, s.Spawn("w", w%2, uint64(w%3), func(th *Thread) {
				rng := threadRand(th)
				for i := 0; i < 200; i++ {
					c := uint64(rng.Intn(4))
					if rng.Intn(16) == 0 {
						c = 300
					}
					th.Step(c)
					trace = append(trace, ev{th.ID(), th.Clock()})
				}
			}))
		}
		s.Run()
		end := final{events: s.Events(), frozen: s.Frozen()}
		for _, th := range ths {
			end.clocks = append(end.clocks, th.Clock())
		}
		return trace, end
	}
	for _, crashAt := range []uint64{0, 1400} {
		want, wantEnd := run(false, crashAt)
		if crashAt == 0 && len(want) != 16*200 {
			t.Fatalf("trace has %d events, want %d", len(want), 16*200)
		}
		if wantEnd.frozen != (crashAt != 0) {
			t.Fatalf("crashAt=%d: frozen = %v", crashAt, wantEnd.frozen)
		}
		got, gotEnd := run(true, crashAt)
		if !slices.Equal(got, want) {
			t.Errorf("crashAt=%d: chooser trace differs from run-ahead (%d vs %d events)", crashAt, len(got), len(want))
		}
		if gotEnd.events != wantEnd.events || gotEnd.frozen != wantEnd.frozen || !slices.Equal(gotEnd.clocks, wantEnd.clocks) {
			t.Errorf("crashAt=%d: chooser ends at %+v, run-ahead at %+v", crashAt, gotEnd, wantEnd)
		}
	}
}

// The scheduler draws no random number, so a Spawn must not pay for a
// generator: math/rand's source alone is 5.4 KB, more than everything else a
// thread allocates.
func TestSpawnBuildsNoRNG(t *testing.T) {
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(0)
	for i := 0; i < n; i++ {
		s.Spawn("w", 0, 0, func(*Thread) {})
	}
	s.Run()
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 2<<10 {
		t.Fatalf("%d bytes allocated per spawned thread, want under 2 KB", per)
	}
}
