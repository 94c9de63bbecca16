package sim

import (
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
