package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// flagPoller waits for *flag in rounds of two segments: announce the load
// (cost 3), then read it and, on a miss, back off.
type flagPoller struct {
	flag  *bool
	read  bool // the next segment reads
	b     Backoff
	polls int // reads made
	// onRead, if set, runs at the start of every read segment.
	onRead func(th *Thread)
}

func (p *flagPoller) Poll(th *Thread) (uint64, bool) {
	if !p.read {
		p.read = true
		return 3, false
	}
	p.polls++
	if p.onRead != nil {
		p.onRead(th)
	}
	if *p.flag {
		return 0, true
	}
	p.read = false
	return p.b.Next(64), false
}

// k pollers wait on one writer. Inline, a poller is switched in only when its
// wait is done, so the switches are bounded by the writer's own handoffs plus
// one per poller plus the first dispatches — not by the thousands of handoffs
// the polls take. The run must be the Chooser twin's (Await's definition
// loop), to completion and into a crash that lands on an inline poll.
func TestAwaitSwitchesOnlyOnDone(t *testing.T) {
	const k, writes = 6, 2000
	type result struct {
		events uint64
		frozen bool
		clocks []uint64
		polls  []int
	}
	run := func(chooser bool, crashAt uint64) (result, *Scheduler, uint64) {
		s := New(0)
		if chooser {
			s.SetChooser(chooserFunc(func(_ int, cands []Candidate) int { return MinClock(cands) }))
		}
		s.CrashAtEvent(crashAt)
		flag := false
		var writerHandoffs uint64
		ths := []*Thread{s.Spawn("writer", 0, 0, func(th *Thread) {
			for i := 0; i < writes; i++ {
				h := s.handoffs
				th.Step(5)
				if s.handoffs != h {
					writerHandoffs++
				}
			}
			flag = true
			th.Step(5)
		})}
		ps := make([]*flagPoller, k)
		for i := range ps {
			ps[i] = &flagPoller{flag: &flag}
			ths = append(ths, s.Spawn("poller", 1, uint64(i), func(th *Thread) {
				defer func() {
					if r := recover(); r != nil && !Crashed(r) {
						panic(r)
					}
				}()
				th.Await(ps[i])
				th.Step(1)
			}))
		}
		s.Run()
		res := result{events: s.Events(), frozen: s.Frozen()}
		for i, th := range ths {
			res.clocks = append(res.clocks, th.Clock())
			if i > 0 {
				res.polls = append(res.polls, ps[i-1].polls)
			}
		}
		return res, s, writerHandoffs
	}
	for _, crashAt := range []uint64{0, 3001} {
		got, s, writerHandoffs := run(false, crashAt)
		want, _, _ := run(true, crashAt)
		if got.events != want.events || got.frozen != want.frozen ||
			!slices.Equal(got.clocks, want.clocks) || !slices.Equal(got.polls, want.polls) {
			t.Fatalf("crashAt=%d: inline run %+v, definition loop %+v", crashAt, got, want)
		}
		if got.frozen != (crashAt != 0) || slices.Min(got.polls) < 20 {
			t.Fatalf("crashAt=%d: frozen = %v, polls %v: the pollers did not wait", crashAt, got.frozen, got.polls)
		}
		if limit := writerHandoffs + k + uint64(1+k); s.switches > limit {
			t.Fatalf("crashAt=%d: %d switches for %d handoffs (%d by the writer), want at most %d",
				crashAt, s.switches, s.handoffs, writerHandoffs, limit)
		}
		t.Logf("crashAt=%d: %d handoffs (%d by the writer), %d switches", crashAt, s.handoffs, writerHandoffs, s.switches)
	}
}

// A segment that panics while it runs inline — on the goroutine of a thread
// three links up the resume chain, whose body recovers everything — is the
// poller's fault: Run names the poller, the poller unwinds with Crash{}, and
// the bystander sees nothing but Crash{}.
func TestAwaitPanicNamesPoller(t *testing.T) {
	s := New(0)
	var ths []*Thread
	var seen, pollerSaw []any
	depthAtPanic := 0
	flag := false
	p := &flagPoller{flag: &flag, onRead: func(th *Thread) {
		depthAtPanic = chainDepth(ths)
		panic("boom 7")
	}}
	// Everyone starts at 0. The poller parks on its first segment's Step
	// (cost 3), each of a, b and the bystander overshoots it with its first
	// Step (cost 100) and resumes the next — the chain is Run → poller → a →
	// b → bystander — and the bystander's park hands the baton to the poller,
	// whose read segment it runs inline.
	ths = append(ths, s.Spawn("poller", 0, 0, func(th *Thread) {
		defer func() { pollerSaw = append(pollerSaw, recover()) }()
		th.Await(p)
	}))
	for _, name := range []string{"a", "b"} {
		ths = append(ths, s.Spawn(name, 0, 0, func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Step(100)
			}
		}))
	}
	ths = append(ths, s.Spawn("bystander", 0, 0, func(th *Thread) {
		for j := 0; j < 3; j++ {
			func() {
				defer func() { seen = append(seen, recover()) }()
				th.Step(100)
			}()
		}
	}))
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if want := `sim thread "poller": boom 7`; got != want {
		t.Fatalf("Run panicked with %#v, want %q", got, want)
	}
	if depthAtPanic != 4 {
		t.Fatalf("the segment panicked at chain depth %d, want 4", depthAtPanic)
	}
	if len(pollerSaw) != 1 || !Crashed(pollerSaw[0]) {
		t.Fatalf("poller unwound with %#v, want Crash{}", pollerSaw)
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
}

// A segment may not Step — on its own goroutine (the first segment) or
// inline on another thread's (a later one): the Step panics instead of
// re-entering dispatch, and the fault is the poller's.
func TestStepInsideSegmentPanics(t *testing.T) {
	for _, inline := range []bool{false, true} {
		s := New(0)
		flag := false
		p := &flagPoller{flag: &flag}
		p.onRead = func(th *Thread) {
			if !inline || p.polls > 1 {
				th.Step(1)
			}
		}
		s.Spawn("poller", 0, 0, func(th *Thread) {
			if !inline {
				p.read = true // the first segment reads
			}
			th.Await(p)
		})
		s.Spawn("other", 0, 0, func(th *Thread) {
			for j := 0; j < 50; j++ {
				th.Step(10)
			}
		})
		var got any
		func() {
			defer func() { got = recover() }()
			s.Run()
		}()
		want := `sim thread "poller": sim: Step inside a poll segment of "poller"`
		if msg, _ := got.(string); msg != want {
			t.Fatalf("inline=%v: Run panicked with %#v, want %q", inline, got, want)
		}
		if s.seg != nil || !s.Frozen() || strings.Count(s.fault, "poll segment") != 1 {
			t.Fatalf("inline=%v: seg %v, frozen %v, fault %q", inline, s.seg, s.Frozen(), s.fault)
		}
	}
}

// parkPoller is a flagPoller that is also a Parker: between rounds, while the
// flag is down, it parks until store wakes it. A non-zero limit ends the wait
// at that many reads, flag or not; the poller parks only before half of them.
type parkPoller struct {
	flagPoller
	th       *Thread
	limit    int
	watching bool // parked: a store to the flag must wake it
}

func (p *parkPoller) Poll(th *Thread) (uint64, bool) {
	c, done := p.flagPoller.Poll(th)
	return c, done || p.limit != 0 && p.polls == p.limit
}

func (p *parkPoller) Park(*Thread) bool {
	p.watching = !p.read && !*p.flag && (p.limit == 0 || 2*p.polls < p.limit)
	return p.watching
}

func (p *parkPoller) Unpark(*Thread) { p.watching = false }

// String names what the poller waits on, for the deadlock verdict.
func (p *parkPoller) String() string { return "the flag" }

// scene is one writer and k parkPollers on a scheduler, under the built-in
// rule or its Chooser twin (Await's definition loop, which never parks).
type scene struct {
	s    *Scheduler
	flag bool
	ps   []*parkPoller
	ths  []*Thread
	seen [][]int // what the writer observed, per observation
}

// sceneResult is what the two runs of a scene must agree on.
type sceneResult struct {
	events uint64
	frozen bool
	fault  any
	clocks []uint64
	polls  []int
	seen   [][]int
}

// runScene spawns writer (thread 0), then k pollers starting at clocks
// 0..k-1, and runs them.
func runScene(chooser bool, k, limit int, writer func(sc *scene, th *Thread)) (sceneResult, *Scheduler) {
	sc := &scene{s: New(0)}
	if chooser {
		sc.s.SetChooser(chooserFunc(func(_ int, cands []Candidate) int { return MinClock(cands) }))
	}
	sc.ths = append(sc.ths, sc.s.Spawn("writer", 0, 0, func(th *Thread) { writer(sc, th) }))
	for i := 0; i < k; i++ {
		p := &parkPoller{flagPoller: flagPoller{flag: &sc.flag}, limit: limit}
		p.th = sc.s.Spawn("poller", 1, uint64(i), func(th *Thread) {
			th.Await(p)
			th.Step(1)
		})
		sc.ps = append(sc.ps, p)
		sc.ths = append(sc.ths, p.th)
	}
	var res sceneResult
	func() {
		defer func() { res.fault = recover() }()
		sc.s.Run()
	}()
	res.events, res.frozen, res.seen = sc.s.Events(), sc.s.Frozen(), sc.seen
	for _, th := range sc.ths {
		res.clocks = append(res.clocks, th.Clock())
	}
	for _, p := range sc.ps {
		res.polls = append(res.polls, p.polls)
	}
	return res, sc.s
}

// observe records every poller's read count as the writer sees it now.
func (sc *scene) observe() {
	var polls []int
	for _, p := range sc.ps {
		polls = append(polls, p.polls)
	}
	sc.seen = append(sc.seen, polls)
}

// wake wakes every watching poller, as nvm.Memory's store halves do.
func (sc *scene) wake(th *Thread) {
	for _, p := range sc.ps {
		if p.watching {
			th.Scheduler().Wake(p.th)
		}
	}
}

// store raises the flag the way nvm.Memory.Store writes a watched word: wake,
// Step, wake, write. It observes at its own dispatch instant, right after the
// first wake, and returns how many pollers parked between its two halves.
func (sc *scene) store(th *Thread) (between int) {
	sc.wake(th)
	sc.observe()
	th.Step(200)
	for _, p := range sc.ps {
		if p.watching {
			between++
		}
	}
	sc.wake(th)
	sc.flag = true
	return between
}

// checkTwin runs a scene both ways and requires the same result, with the
// built-in run parked at least once.
func checkTwin(t *testing.T, k, limit int, writer func(sc *scene, th *Thread)) sceneResult {
	t.Helper()
	got, s := runScene(false, k, limit, writer)
	want, _ := runScene(true, k, limit, writer)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parked run differs from its Chooser twin:\n parked %+v\n   twin %+v", got, want)
	}
	if s.parks == 0 || len(s.parked) != 0 {
		t.Fatalf("%d parks, %d still parked after Run: the scene did not exercise parking", s.parks, len(s.parked))
	}
	t.Logf("%d events, %d parks, %d handoffs, %d switches", got.events, s.parks, s.handoffs, s.switches)
	return got
}

// The wake replays exactly the polls that precede the writer's dispatch:
// what the writer observes right after the first wake of its store is what
// it observes under Await's definition loop. The pollers that park between
// the store's two halves — the flag is still down until the write — are
// woken by the second one.
func TestParkedWakeHorizon(t *testing.T) {
	between := 0
	checkTwin(t, 6, 0, func(sc *scene, th *Thread) {
		for i := 0; i < 40; i++ {
			th.Step(97)
		}
		between += sc.store(th)
		th.Step(5)
	})
	if between == 0 {
		t.Fatal("no poller parked between the store's two halves")
	}
}

// storePoller is a writer cut into poll segments, as the open-loop injector
// is: stores times, 97 ns of work, then a store in two halves as sc.store
// makes it — wake and observe; Step 200; wake and write — whose last one
// raises the flag. It counts the stores whose halves ran inline (runPoll, on
// another thread's goroutine) and the pollers parked between such halves.
type storePoller struct {
	sc             *scene
	stores, i, seg int
	inline         int
	between        int
}

func (w *storePoller) Poll(th *Thread) (uint64, bool) {
	switch w.seg {
	case 1: // the store's first half
		w.sc.wake(th)
		w.sc.observe()
		w.seg = 2
		return 200, false
	case 2: // its second half
		if th.poll != nil {
			w.inline++
			for _, p := range w.sc.ps {
				if p.watching {
					w.between++
				}
			}
		}
		w.sc.wake(th)
		if w.i++; w.i == w.stores {
			w.sc.flag = true
		}
	}
	if w.i == w.stores {
		return 0, true
	}
	w.seg = 1
	return 97, false
}

// A store whose halves run inside a poll segment — on whichever thread holds
// the baton, not the writer's own goroutine — wakes a parked waiter up to the
// writer's dispatch, the horizon it has on its own goroutine: the scheduler
// names the segment's owner as the thread the baton is moving to. The run
// must be its Chooser twin's, with stores run inline and pollers parked
// between their halves.
func TestParkedWakeFromInlineStore(t *testing.T) {
	var inline, between int
	checkTwin(t, 5, 0, func(sc *scene, th *Thread) {
		w := &storePoller{sc: sc, stores: 12}
		th.Await(w)
		if sc.s.chooser == nil {
			inline, between = w.inline, w.between
		}
		th.Step(5)
	})
	if inline == 0 || between == 0 {
		t.Fatalf("%d stores ran inline, %d pollers parked between their halves: want both", inline, between)
	}
	t.Logf("%d inline stores, %d pollers parked between their halves", inline, between)
}

// Events read mid-run counts every poll that precedes the reader's dispatch,
// parked or not.
func TestParkedEventsMidRun(t *testing.T) {
	got := checkTwin(t, 4, 0, func(sc *scene, th *Thread) {
		for i := 0; i < 12; i++ {
			th.Step(313)
			sc.seen = append(sc.seen, []int{int(th.Scheduler().Events())})
		}
		sc.store(th)
	})
	if len(got.seen) != 13 {
		t.Fatalf("%d observations, want 13", len(got.seen))
	}
}

// Arming a crash mid-run wakes the parked waiters first, and none parks
// while it is armed, so the crash fires at the event index the definition
// loop reaches it at.
func TestParkedCrashArmedMidRun(t *testing.T) {
	writer := func(arm func(*Thread)) func(sc *scene, th *Thread) {
		return func(sc *scene, th *Thread) {
			for i := 0; i < 6; i++ {
				th.Step(313)
			}
			arm(th)
			for i := 0; i < 6; i++ {
				th.Step(313)
			}
			sc.store(th)
		}
	}
	var at uint64
	runScene(false, 4, 0, writer(func(th *Thread) { at = th.Scheduler().Events() + 40 }))
	got := checkTwin(t, 4, 0, writer(func(th *Thread) { th.Scheduler().CrashAtEvent(at) }))
	if !got.frozen || got.events != at {
		t.Fatalf("frozen %v after %d events, want a crash at event %d", got.frozen, got.events, at)
	}
}

// A bug panic in a segment that a wake replays, on the writer's goroutine, is
// the poller's fault: Run names the poller. The poller parks while it runs
// inline past the writer's first Step of a pair, and the writer wakes it
// after the second, so a replay reaches back over one writer Step only: the
// machine stops exactly where the definition loop's panic stops it. (A round
// that panics breaks the Parker contract — its rounds were to repeat alike —
// so a writer that ran several Steps ahead would stop later than that.)
func TestParkedReplayPanicNamesPoller(t *testing.T) {
	writer := func(sc *scene, th *Thread) {
		for i := 0; i < 10; i++ {
			th.Step(1000)
			th.Step(1000)
			sc.wake(th)
		}
		sc.store(th)
	}
	// inReplay reports whether the poller's segment runs in a wake by th.
	inReplay := func(sc *scene, th *Thread) bool { return sc.s.seg == sc.ps[0].th && sc.s.next == th }
	// The read to panic in: the first one a wake replays.
	first := 0
	runScene(false, 1, 0, func(sc *scene, th *Thread) {
		sc.ps[0].onRead = func(*Thread) {
			if first == 0 && inReplay(sc, th) {
				first = sc.ps[0].polls
			}
		}
		writer(sc, th)
	})
	if first == 0 {
		t.Fatal("no wake replayed a read")
	}
	replayed := false
	got := checkTwin(t, 1, 0, func(sc *scene, th *Thread) {
		sc.ps[0].onRead = func(*Thread) {
			if sc.ps[0].polls == first {
				if sc.s.chooser == nil {
					replayed = inReplay(sc, th)
				}
				panic("boom")
			}
		}
		writer(sc, th)
	})
	if want := `sim thread "poller": boom`; got.fault != want || !got.frozen {
		t.Fatalf("Run panicked with %#v (frozen %v), want %q", got.fault, got.frozen, want)
	}
	if !replayed {
		t.Fatalf("the panicking read %d was not replayed by the writer's wake", first)
	}
}

// A bug panic in a thread's own code is an observation point: the parked
// waiters' polls that precede it are replayed before the machine freezes, so
// the run stops where the definition loop's does.
func TestParkedBugPanicWakesWaiters(t *testing.T) {
	got := checkTwin(t, 3, 0, func(_ *scene, th *Thread) {
		for i := 0; i < 8; i++ {
			th.Step(700)
		}
		panic("boom")
	})
	if want := `sim thread "writer": boom`; got.fault != want || !got.frozen {
		t.Fatalf("Run panicked with %#v (frozen %v), want %q", got.fault, got.frozen, want)
	}
}

// A machine left with only steady waiters is deadlocked: by the Parker
// contract nothing but a store could end their waits, and no thread is left
// to make one. The run ends with the verdict, naming every waiter in id order
// and what it waits on, and every waiter unwinds with Crash{} — whether the
// last other thread exits while they are parked, or a lone waiter runs ahead
// into its steady wait, on its own goroutine or inline in an exiting thread.
func TestParkedDeadlockVerdict(t *testing.T) {
	const two = `sim: deadlock: "poller" waits on the flag; "poller" waits on the flag`
	for _, tc := range []struct {
		name   string
		k      int
		writer func(sc *scene, th *Thread)
		want   string
	}{
		{"exit leaves parked waiters", 2, func(_ *scene, th *Thread) {
			for i := 0; i < 5; i++ {
				th.Step(1000)
			}
		}, two},
		{"a lone waiter runs ahead inline", 1, func(_ *scene, th *Thread) { th.Step(1) },
			`sim: deadlock: "poller" waits on the flag`},
		{"a lone waiter runs ahead on its own goroutine", 1, func(_ *scene, th *Thread) {},
			`sim: deadlock: "poller" waits on the flag`},
	} {
		got, s := runScene(false, tc.k, 0, tc.writer)
		if got.fault != tc.want || !got.frozen {
			t.Errorf("%s: Run panicked with %#v (frozen %v), want %q", tc.name, got.fault, got.frozen, tc.want)
		}
		if s.live != 0 || len(s.parked) != 0 || len(s.heap.ts) != 0 {
			t.Errorf("%s: after Run: %d live, %d parked, %d in the heap", tc.name, s.live, len(s.parked), len(s.heap.ts))
		}
	}
}
