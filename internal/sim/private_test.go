package sim

import (
	"slices"
	"testing"
)

// chargeRun is what one run of runCharge leaves behind.
type chargeRun struct {
	trace   [][2]uint64 // shared effects: (thread id, clock)
	private []uint64    // the owner's private accesses, by clock after each
	events  uint64
	frozen  bool
	clocks  []uint64
	charged int // Charges granted
}

func (a chargeRun) equal(b chargeRun) bool {
	return slices.Equal(a.trace, b.trace) && slices.Equal(a.private, b.private) &&
		a.events == b.events && a.frozen == b.frozen && slices.Equal(a.clocks, b.clocks)
}

// runCharge runs an owner thread that charges stretches of accesses to a
// private memory (Charge, or Step where it refuses) between shared effects,
// which it makes after Settle, against five threads that Step and make a
// shared effect after every Step. Halfway the owner waits in Await for a flag
// one of them raises, so Await's entry settles it too. Plain, or under a
// MinClock chooser, where Charge refuses and every access is a decision; arm
// runs before Run.
func runCharge(chooser bool, arm func(*Scheduler)) chargeRun {
	s := New(0)
	if chooser {
		s.SetChooser(chooserFunc(func(_ int, cands []Candidate) int { return MinClock(cands) }))
	}
	var r chargeRun
	flag := false
	ths := []*Thread{s.Spawn("owner", 0, 0, func(th *Thread) {
		rng := threadRand(th)
		for i := 0; i < 60; i++ {
			for j := rng.Intn(12); j > 0; j-- {
				c := uint64(1 + rng.Intn(40))
				if th.Charge(c) {
					r.charged++
				} else {
					th.Step(c)
				}
				r.private = append(r.private, th.Clock())
			}
			if i == 30 {
				th.Await(&flagPoller{flag: &flag})
			}
			th.Settle()
			r.trace = append(r.trace, [2]uint64{uint64(th.ID()), th.Clock()})
		}
	})}
	for w := 1; w < 6; w++ {
		ths = append(ths, s.Spawn("w", w%2, uint64(w), func(th *Thread) {
			rng := threadRand(th)
			for i := 0; i < 150; i++ {
				th.Step(uint64(1 + rng.Intn(30)))
				r.trace = append(r.trace, [2]uint64{uint64(th.ID()), th.Clock()})
				if i == 100 && th.ID() == 1 {
					flag = true
				}
			}
		}))
	}
	if arm != nil {
		arm(s)
	}
	s.Run()
	r.events, r.frozen = s.Events(), s.Frozen()
	for _, th := range ths {
		r.clocks = append(r.clocks, th.Clock())
	}
	return r
}

// Charged accesses are indistinguishable from Steps: a thread that runs
// ahead over its private accesses and settles before each shared effect
// gives its MinClock twin's trace, private accesses, event count and clocks.
func TestChargeMatchesChooserTwin(t *testing.T) {
	got, want := runCharge(false, nil), runCharge(true, nil)
	if !got.equal(want) {
		t.Fatalf("charged run differs from its Chooser twin:\n plain %+v\n  twin %+v", got, want)
	}
	if got.charged == 0 || want.charged != 0 {
		t.Fatalf("%d Charges granted plain, %d under the Chooser; want some and none", got.charged, want.charged)
	}
	t.Logf("%d events, %d of %d private accesses charged", got.events, got.charged, len(got.private))
}

// While a crash is armed by event, Charge refuses: event indexes stay exact,
// and the crash lands where the twin's does.
func TestChargeOffUnderEventCrash(t *testing.T) {
	arm := func(s *Scheduler) { s.CrashAtEvent(500) }
	got, want := runCharge(false, arm), runCharge(true, arm)
	if !got.frozen || got.charged != 0 || !got.equal(want) {
		t.Fatalf("frozen %v, %d Charges granted; plain %+v\n twin %+v", got.frozen, got.charged, got, want)
	}
}

// A crash armed at an instant inside a charged stretch cuts the run where the
// twin's cut falls: Charge never runs past the instant, so no private access
// the cut excludes has been made. A condition that declines leaves the run
// whole, and an instant after every thread exited is asked at the last exit.
func TestCrashInstantInsideChargedStretch(t *testing.T) {
	whole := runCharge(false, nil)
	var instants []uint64
	for i := 10; i < len(whole.private); i += len(whole.private) / 8 {
		c := whole.private[i]
		instants = append(instants, c-1, c, c+1)
	}
	for _, at := range instants {
		var asked, twinAsked int
		got := runCharge(false, func(s *Scheduler) { s.CrashAtInstant(at, func() bool { asked++; return true }) })
		want := runCharge(true, func(s *Scheduler) { s.CrashAtInstant(at, func() bool { twinAsked++; return true }) })
		if !got.frozen || !got.equal(want) || asked != 1 || twinAsked != 1 {
			t.Fatalf("crash at %d ns: frozen %v, asked %d and %d times\n plain %+v\n  twin %+v", at, got.frozen, asked, twinAsked, got, want)
		}
		if got.charged == 0 {
			t.Fatalf("crash at %d ns: nothing charged ahead before the cut", at)
		}
	}
	declined := runCharge(false, func(s *Scheduler) { s.CrashAtInstant(whole.private[40], func() bool { return false }) })
	if !declined.equal(whole) {
		t.Fatalf("a declined crash instant changed the run:\n got %+v\nwant %+v", declined, whole)
	}
	last := slices.Max(whole.clocks)
	asked := 0
	late := runCharge(false, func(s *Scheduler) { s.CrashAtInstant(last+1, func() bool { asked++; return true }) })
	if !late.frozen || asked != 1 || !slices.Equal(late.trace, whole.trace) {
		t.Fatalf("crash instant after the last exit: frozen %v, asked %d times", late.frozen, asked)
	}
	t.Logf("%d crash instants inside charged stretches", len(instants))
}

// A cut at a thread's dispatch — CrashNow, or an event crash armed mid-run —
// after another thread charged ahead past it would be inexact: it panics.
func TestCrashNowPastChargedClockPanics(t *testing.T) {
	for _, tc := range []struct {
		what string
		cut  func(s *Scheduler)
	}{
		{"CrashNow", func(s *Scheduler) { s.CrashNow() }},
		{"CrashAtEvent", func(s *Scheduler) { s.CrashAtEvent(s.Events() + 5) }},
	} {
		s := New(0)
		s.Spawn("owner", 0, 0, func(th *Thread) {
			for i := 0; i < 10; i++ {
				if !th.Charge(10) {
					t.Error("Charge refused on a plain scheduler")
				}
			}
			th.Settle()
			th.Step(1)
		})
		s.Spawn("w", 0, 0, func(th *Thread) {
			th.Step(50)
			tc.cut(s)
			th.Step(1)
		})
		var rc any
		func() {
			defer func() { rc = recover() }()
			s.Run()
		}()
		msg, _ := rc.(string)
		if want := `sim thread "w": sim: ` + tc.what + ` at thread "w"'s clock 50 cuts through accesses charged ahead to 100`; msg != want {
			t.Fatalf("Run panicked with %v, want %q", rc, want)
		}
	}
}
