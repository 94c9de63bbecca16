// Package sim provides a deterministic virtual-time scheduler for simulated
// threads.
//
// The reproduction of PREP-UC needs scaling curves for up to ~100 hardware
// threads, crash injection at adversarial points, and a latency model for
// (simulated) non-volatile memory. Real goroutine parallelism cannot supply
// any of these portably, so sim executes the real algorithm code on simulated
// threads under a discrete-event regime:
//
//   - Every simulated thread owns a virtual clock, in nanoseconds. The clock
//     models the time a dedicated hardware thread would have consumed.
//   - Each shared-memory access calls Thread.Step(cost), which advances the
//     clock and then hands control to the thread with the minimum clock.
//     Exactly one simulated thread executes at any real instant, so all
//     shared state touched between Step calls is free of data races by
//     construction, and compare-and-swap is trivially atomic.
//   - An access nobody else can observe — to a memory private to its thread
//     — calls Thread.Charge instead: the clock advances, but no dispatch
//     decision is made until the thread settles (Thread.Settle) before its
//     next effect another thread or a crash could see.
//   - Throughput is measured as operations per virtual second, which is
//     independent of the host CPU count and fully reproducible: dispatch is
//     by minimum (clock, id) and the scheduler draws no random number.
//
// A crash (modelling a power failure) — at an event index, at a virtual
// instant, or called by a thread — freezes the scheduler: every subsequent
// Step panics with a value recognized by Crashed, unwinding each
// simulated thread out of whatever operation it was executing — so crashes
// land mid-operation, as they do on hardware.
//
// # Concurrency contract
//
// Spawn may be called from the host goroutine before Run, or from a running
// simulated thread; it must not be called from a foreign goroutine while the
// scheduler is dispatching. Control methods (CrashAtEvent, CrashNow, Events,
// Frozen) may be called from the host goroutine only while
// the scheduler is quiescent (before Run, or after Run returned), or from
// inside a running simulated thread. Every simulated thread is a coroutine
// (iter.Pull), and exactly one of them — the baton holder — executes at any
// instant; all scheduler state is owned by the baton holder. The baton moves
// only by a coroutine switch: the holder resumes its successor directly, or
// yields back towards a successor that is blocked in such a resume call
// further down the chain (see transfer); Run, on the caller's goroutine, is
// the bottom of that chain and holds the baton before the first and after
// the last thread. Each switch is a happens-before edge, so Step needs no
// locks or atomics: its run-ahead fast path is a clock add, a counter
// increment and one heap-top comparison. A poll segment of a thread parked in
// Await executes on the baton holder's goroutine, not its own (see Await) —
// and a parked waiter's segments on the goroutine of the thread that wakes it
// (see Wake); the switches that carried the baton there order them like any
// other baton holder's code. A panic never crosses a switch: Spawn's wrapper,
// and for a segment the inline loop or the replay, end it in the thread it
// belongs to. See DESIGN.md ("Run-ahead scheduling") for the
// schedule-preservation argument.
package sim

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"strings"
)

// Crash is the panic value raised by Step once the scheduler is frozen.
// Simulated threads are unwound with it; Spawn's wrapper recovers it.
type Crash struct{}

func (Crash) Error() string { return "sim: system crashed (power failure)" }

// Crashed reports whether a recovered panic value is a simulated crash.
func Crashed(v any) bool {
	_, ok := v.(Crash)
	return ok
}

// PanicToErr, deferred in a phase's own simulated thread, turns its bug panic
// into *err (an earlier error is kept): a corrupted image or a heap a flag
// sized is the run's verdict, not the tool's crash. The crash unwind passes
// through. What Run re-raises — another thread's panic, a deadlock — is
// drivers.Phase's error: Phase holds the failure contract of every phase.
func PanicToErr(what string, err *error) {
	if rc := recover(); rc != nil && !Crashed(rc) && *err == nil {
		*err = fmt.Errorf("%s panicked: %v", what, rc)
	}
}

// Thread is a simulated hardware thread. All methods must be called from the
// function that was handed the Thread by Spawn.
type Thread struct {
	id    int
	name  string
	node  int // NUMA node the thread is pinned to
	clock uint64
	sch   *Scheduler

	// ahead is set by Charge: the thread may have charged past the heap
	// minimum and must Settle before its next effect another thread or a
	// crash can see. Step leaves it set; the Settle it then costs finds the
	// thread the minimum and returns.
	ahead bool

	// The thread's coroutine: resume switches into it, from Run or from the
	// thread handing it the baton; yield switches back to whoever resumed it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// active is set while the thread is on the resume chain: it holds the
	// baton, or is blocked inside the resume call of a thread it handed the
	// baton to. Clear while suspended in yield, before its first dispatch,
	// and after exit. Calling resume on an active thread would re-enter a
	// running coroutine; transfer yields towards it instead.
	active bool

	// poll is set while the thread is parked inside Await with a poll segment
	// pending: transfer runs that segment inline instead of switching in. It
	// is cleared when the wait is done or the machine froze, which is the
	// signal for the thread to be switched in.
	poll Poller

	// ins counts the dispatches that reached the thread by a coroutine
	// switch, its first one included — not the switches that only pass
	// through it on their way down the resume chain. A test-only tally, like
	// the scheduler's handoffs and switches.
	ins uint64
}

// ID returns the thread's scheduler-wide identifier.
func (t *Thread) ID() int { return t.id }

// Node returns the NUMA node the thread is pinned to.
func (t *Thread) Node() int { return t.node }

// Name returns the name the thread was spawned with.
func (t *Thread) Name() string { return t.name }

// Clock returns the thread's virtual time in nanoseconds.
func (t *Thread) Clock() uint64 { return t.clock }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.sch }

// Scheduler runs simulated threads in virtual-time order. All of its state
// is owned by the baton holder; see the package-level concurrency contract.
type Scheduler struct {
	nextID  int
	heap    threadHeap
	live    int
	started bool

	// next is the thread the baton is moving to; a thread names its successor
	// here before it parks or exits. Once the baton arrived it is the baton
	// holder itself; nil once every thread exited.
	next *Thread

	events  uint64
	frozen  bool
	crashAt uint64 // event index at which to freeze; 0 = never

	// handoffs counts park calls, switches the coroutine switches transfer
	// spent delivering them (resumes and yields; a thread's final return is
	// not counted), parks the waiters that left the heap. Test-only tallies
	// for the switches-per-handoff bounds and the parking tests.
	handoffs uint64
	switches uint64
	parks    uint64

	// fault is the first bug panic (not a Crash) raised by a simulated
	// thread, already prefixed with the thread's name; Run re-raises it.
	fault string

	// seg is the thread whose poll segment is executing, nil between
	// segments: Step refuses to run inside one.
	seg *Thread

	// chooser, when non-nil, replaces the minimum-(clock,id) dispatch rule:
	// every dispatch decision is delegated to it. cands/cview are the reused
	// candidate scratch buffers.
	chooser Chooser
	cands   []*Thread
	cview   []Candidate

	// parked holds the waiters a steady wait took off the heap (Parker), in
	// park order; Wake puts them back. It sits after the fields Step reads,
	// off their cache lines.
	parked []*Thread

	// cut is the crash armed at a virtual instant (CrashAtInstant): a
	// pseudo-thread in the heap at (instant, largest id) that no coroutine
	// backs. The dispatch that pops it is the cut; cutIf, if set, decides
	// there whether the machine freezes. nil when none is armed.
	cut   *Thread
	cutIf func() bool

	// pastNS/pastID is the latest (clock, id) a Charge reached: a cut at an
	// earlier dispatch would land behind an effect already made (checkCut).
	pastNS uint64
	pastID int
}

// New creates a scheduler. Its parameter is ignored — the scheduler has no
// random state to seed — and remains only because the frozen
// benchmark/micro.go passes one (ROADMAP item 1h); pass 0.
func New(int64) *Scheduler {
	return &Scheduler{
		heap: threadHeap{ts: make([]*Thread, 0, 16)},
	}
}

// Candidate describes one dispatchable thread at a scheduling decision
// point, in the canonical (ascending thread id) candidate order.
type Candidate struct {
	ID    int
	Clock uint64
}

// Chooser overrides the scheduler's dispatch rule. At every decision point —
// each Step, the initial dispatch of Run, and each thread exit — Choose
// receives the dispatchable threads in ascending-id order and returns the
// index of the one to run next. caller is the id of the thread currently
// inside Step (it is itself a candidate: choosing it means "keep running"),
// or -1 for dispatches where no thread is mid-Step (Run's first dispatch and
// exit handoffs).
//
// A Chooser makes the schedule entirely its own responsibility: the built-in
// rule's fairness (minimum virtual clock first) is what lets spin loops
// terminate, so a chooser that starves a lock holder can livelock the
// simulation. Choosers that only want to force a prefix of decisions should
// fall back to MinClock for the rest. Choose runs on the baton holder's
// goroutine and must be deterministic; the candidate slice is reused across
// calls and must not be retained.
type Chooser interface {
	Choose(caller int, cands []Candidate) int
}

// SetChooser installs (or, with nil, removes) a dispatch chooser. Call only
// before Run. While a chooser is installed the run-ahead fast path is
// bypassed: every Step is a full decision point.
func (s *Scheduler) SetChooser(c Chooser) {
	if s.started {
		panic("sim: SetChooser after Run")
	}
	s.chooser = c
}

// MinClock returns the index of the minimum-(clock,id) candidate: the
// decision the built-in dispatch rule would take. Choosers use it as their
// fallback once their forced prefix is exhausted.
func MinClock(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Clock < cands[best].Clock ||
			(cands[i].Clock == cands[best].Clock && cands[i].ID < cands[best].ID) {
			best = i
		}
	}
	return best
}

// chooseNext delegates one dispatch decision to the installed chooser.
// caller is the thread currently inside Step, or nil for Run/exit handoffs
// where every dispatchable thread is in the heap. It returns the chosen
// thread, already removed from the heap if it came from there; if the caller
// itself is chosen it is returned as-is.
func (s *Scheduler) chooseNext(caller *Thread) *Thread {
	s.cands = s.cands[:0]
	if caller != nil {
		s.cands = append(s.cands, caller)
	}
	for _, u := range s.heap.ts {
		if u != s.cut {
			s.cands = append(s.cands, u)
		}
	}
	if len(s.cands) == 0 {
		// Only the crash instant is left: it is the dispatch.
		s.heap.remove(s.cut)
		return s.cut
	}
	// Canonical ascending-id order (insertion sort: the set is small). Heap
	// array order is deterministic but an implementation detail; id order is
	// the stable contract choosers and traces key on.
	for i := 1; i < len(s.cands); i++ {
		for j := i; j > 0 && s.cands[j].id < s.cands[j-1].id; j-- {
			s.cands[j], s.cands[j-1] = s.cands[j-1], s.cands[j]
		}
	}
	s.cview = s.cview[:0]
	for _, t := range s.cands {
		s.cview = append(s.cview, Candidate{ID: t.id, Clock: t.clock})
	}
	callerID := -1
	if caller != nil {
		callerID = caller.id
	}
	idx := s.chooser.Choose(callerID, s.cview)
	if idx < 0 || idx >= len(s.cands) {
		panic(fmt.Sprintf("sim: chooser returned index %d of %d candidates", idx, len(s.cands)))
	}
	next := s.cands[idx]
	if s.cut != nil && s.cut.less(next) {
		// The chosen segment starts past the crash instant: the cut comes
		// first.
		next = s.cut
	}
	if next != caller {
		s.heap.remove(next)
	}
	return next
}

// Events returns the number of Step calls executed so far. Like Frozen, it
// must be read from a quiescent scheduler or the baton holder. Read mid-run
// it is an observation point: every parked waiter is woken first (Wake), so
// the count includes each of their polls that precedes the holder's dispatch.
// It also includes every event a thread charged ahead (Charge), which the
// definition schedule may not have reached yet: the count is exact at
// quiescence.
func (s *Scheduler) Events() uint64 {
	s.wakeAll(s.next)
	return s.events
}

// CrashAtEvent arranges for the system to freeze at the given global event
// index (1-based). It may be set at any time before the event fires. A value
// of 0 disables crashing. Arming a crash mid-run wakes every parked waiter
// first, as Events does, and no waiter parks while one is armed: event
// indexes are exact from here on.
//
// Arming is last-wins: a crash already armed is silently replaced. The
// previously armed event index is returned (0 = none was armed) so harnesses
// that stack adversaries — the exhaustive explorer arms one crash per branch
// on schedulers it may reuse — can detect, restore, or assert on an arm they
// would otherwise clobber. To place a crash inside a phase whose absolute
// index is unknown in advance (a recovery run), arm Events()+n. Armed
// mid-run it panics if a thread has charged ahead (Charge) past the caller's
// dispatch: the event indexes already counted would not be the schedule's.
func (s *Scheduler) CrashAtEvent(n uint64) (prev uint64) {
	if n != 0 {
		s.checkCut("CrashAtEvent")
		s.wakeAll(s.next)
	}
	prev = s.crashAt
	s.crashAt = n
	return prev
}

// CrashAtInstant arms a crash at virtual instant ns. The machine freezes
// where a thread with the largest id, stepping to ns, would call CrashNow:
// every segment dispatched at a clock ≤ ns runs, none later, and the parked
// waiters are replayed up to that cut. If cond is non-nil it is asked there,
// on the baton holder's goroutine, and false leaves the machine running. A
// crash instant is no thread: it charges no event and, if every thread has
// exited before it, is asked at the last exit. Under a Chooser the cut comes
// before the first chosen segment that starts past ns. Call it only before
// Run; a second call replaces the first.
func (s *Scheduler) CrashAtInstant(ns uint64, cond func() bool) {
	if s.started {
		panic("sim: CrashAtInstant after Run")
	}
	if s.cut != nil {
		s.heap.remove(s.cut)
	}
	s.cut = &Thread{id: math.MaxInt, name: "crash instant", clock: ns, sch: s}
	s.cutIf = cond
	s.heap.push(s.cut)
}

// strike takes the armed crash instant off the scheduler and, unless its
// condition declines, freezes the machine at it: the cut CrashNow makes from
// the instant's (clock, id). The caller has taken it out of the heap.
func (s *Scheduler) strike() {
	c, cond := s.cut, s.cutIf
	s.cut, s.cutIf = nil, nil
	if !s.frozen && (cond == nil || cond()) {
		s.wakeAll(c)
		s.frozen = true
	}
}

// Frozen reports whether the system has crashed. Call it from the host only
// while the scheduler is quiescent (before Run or after Run returned), or
// from a running simulated thread.
func (s *Scheduler) Frozen() bool { return s.frozen }

// Spawn registers a simulated thread pinned to the given NUMA node and
// starting at virtual time startClock. The function fn runs as a coroutine
// that executes only while the scheduler grants it the baton. Spawn may be
// called before Run or from inside a running simulated thread; a spawner
// that wants its child to start "now" passes its own Clock() as startClock.
func (s *Scheduler) Spawn(name string, node int, startClock uint64, fn func(*Thread)) *Thread {
	t := &Thread{
		id:    s.nextID,
		name:  name,
		node:  node,
		clock: startClock,
		sch:   s,
	}
	s.nextID++
	s.live++
	s.heap.push(t)

	// iter.Pull starts the body at the first resume. Its stop function is not
	// kept: every thread runs to its own exit. No panic may leave the body:
	// iter.Pull would re-raise it from resume, which is a frame of whichever
	// thread handed over the baton, and that thread's fn could swallow it.
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.ins++
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				s.fail(t, r)
			}
			s.exit(t)
		}()
		if !s.frozen {
			fn(t)
		}
	})
	return t
}

// Run hands the baton to the first thread and returns, on the caller's
// goroutine, once every spawned thread has exited. A panic inside a
// simulated thread other than a Crash freezes the scheduler, so every other
// thread unwinds as in a crash; Run then panics with the first such value,
// prefixed with the name of the thread that raised it. A deadlock — every
// live thread in a steady wait (Parker) — ends the run the same way, with
// the "sim: deadlock: …" verdict as the value.
func (s *Scheduler) Run() {
	if s.started {
		panic("sim: Run called twice")
	}
	s.started = true
	if s.live == 0 {
		return
	}
	s.next = s.pickNext()
	s.transfer(nil)
	if s.fault != "" {
		panic(s.fault)
	}
}

// transfer moves the baton from self to s.next and returns when it is back
// with self (for Run, self == nil: when every thread has exited). A suspended
// successor is resumed directly, one switch, and self stays blocked in that
// resume call as a link of the resume chain Run → … → baton holder. A
// successor already on the chain cannot be resumed again; self yields instead,
// which returns control to the link below, and every link re-checks s.next as
// control unwinds to it. A thread is on the chain at most once, so the chain
// is never deeper than the live-thread count. A handoff causes at most one
// resume, and each resume is undone by at most one yield or by the thread's
// exit: two threads alternating pay one switch per handoff, and no schedule
// pays more than two on average.
//
// A successor parked inside Await with a poll segment pending is not switched
// in: its segments run right here, on the baton holder's goroutine (runPoll),
// until it hands the baton on — often straight back to self, which then
// switches not at all — or its wait is done.
func (s *Scheduler) transfer(self *Thread) {
	for s.next != self {
		n := s.next
		if n == s.cut {
			// Every thread's next segment starts past the crash instant.
			s.strike()
			if len(s.heap.ts) == 0 {
				s.deadlock(nil) // the condition declined, and all left are parked
			}
			s.next = s.pickNext()
			continue
		}
		if n.poll != nil {
			s.runPoll(n)
			continue
		}
		s.switches++
		if n.active {
			self.active = false
			self.yield(struct{}{})
			self.active = true
		} else {
			n.active = true
			n.resume()
		}
		if s.next == self && self != nil {
			self.ins++ // the baton arrived by this switch
		}
	}
}

// pickNext takes the thread to dispatch when no thread is mid-Step: Run's
// first dispatch and exit handoffs.
func (s *Scheduler) pickNext() *Thread {
	if s.chooser != nil {
		return s.chooseNext(nil)
	}
	return s.heap.popMin()
}

// Step advances the calling thread's virtual clock by cost nanoseconds and
// yields to the minimum-clock runnable thread. It panics with Crash{} if the
// system has frozen (crashed).
//
// Run-ahead fast path: when no ready thread has a strictly smaller clock than
// the caller's advanced clock — or an equal clock with a smaller id — the
// caller keeps the baton and returns without touching the heap or switching.
// A handoff swaps the caller with the heap root in a single sift-down
// (replaceMin); because (clock, id) keys are unique, the minimum popped from
// any valid heap arrangement is the same thread, so the schedule is
// identical to a full reinsertion (push the caller, pop the minimum).
func (t *Thread) Step(cost uint64) {
	s := t.sch
	if s.seg != nil {
		panic(fmt.Sprintf("sim: Step inside a poll segment of %q", s.seg.name))
	}
	if s.charge(t, cost) {
		panic(Crash{})
	}
	if s.chooser != nil {
		next := s.chooseNext(t)
		if next == t {
			return
		}
		s.heap.push(t)
		s.park(t, next)
		return
	}
	if s.runsAhead(t) {
		return // still the minimum: no heap op, no handoff
	}
	s.park(t, s.heap.replaceMin(t))
}

// charge books one event of cost on t's clock and reports whether the
// machine is now frozen. A zero-cost event would let the caller keep the
// minimum clock and starve every other thread, so it is charged the 1 ns
// floor.
func (s *Scheduler) charge(t *Thread, cost uint64) (frozen bool) {
	if cost == 0 {
		cost = 1
	}
	t.clock += cost
	s.events++
	if s.crashAt != 0 && s.events >= s.crashAt {
		s.frozen = true
	}
	return s.frozen
}

// runsAhead reports whether t, having just charged an event, is still the
// minimum-(clock, id) thread and so keeps the baton.
func (s *Scheduler) runsAhead(t *Thread) bool {
	return len(s.heap.ts) == 0 || !s.heap.ts[0].less(t)
}

// Charge books cost on t's clock and counts the event as Step does, but
// makes no dispatch decision: t keeps the baton whatever the other threads'
// clocks. It is the price of an access nobody else can observe — to a memory
// private to t — and t must Settle before any effect another thread or a
// crash could see. Charge refuses, charging nothing, where a skipped decision
// would show: under a Chooser, while a crash is armed by event, inside a poll
// segment, on a frozen machine, and when the new clock would pass the crash
// instant (CrashAtInstant). The caller then Steps instead.
func (t *Thread) Charge(cost uint64) bool {
	s := t.sch
	if cost == 0 {
		cost = 1
	}
	if s.chooser != nil || s.crashAt != 0 || s.seg != nil || s.frozen ||
		s.cut != nil && t.clock+cost > s.cut.clock {
		return false
	}
	t.clock += cost
	s.events++
	t.ahead = true
	if t.clock > s.pastNS || t.clock == s.pastNS && t.id > s.pastID {
		s.pastNS, s.pastID = t.clock, t.id
	}
	return true
}

// Ahead reports whether t has charged (Charge) since it last settled.
func (t *Thread) Ahead() bool { return t.ahead }

// Settle ends a stretch of Charges: t yields, without a charge, until it is
// the minimum-(clock, id) thread again, so that every thread whose segment
// the stretch skipped has run it. A thread that charged nothing since its
// last dispatch decision returns at once. Like Step, it panics with Crash{}
// if the machine froze meanwhile.
//
// Why the schedule is the definition's: a Charge changes only t's clock, the
// event count, t's private memory and commutative counter sums, and no other
// thread reads any of them. The threads t ran ahead of therefore take the
// same segments in the same order when the Settle lets them run, and t's
// next effect comes at the dispatch the definition schedule gives it.
func (t *Thread) Settle() {
	if t.ahead {
		t.settle()
	}
}

func (t *Thread) settle() {
	s := t.sch
	t.ahead = false
	if !s.runsAhead(t) {
		s.park(t, s.heap.replaceMin(t))
	}
}

// checkCut panics when a cut at the baton holder's dispatch — CrashNow, or an
// event crash armed mid-run — would be inexact: a thread charged ahead past
// it (Charge), so an effect the cut must exclude has already been made.
func (s *Scheduler) checkCut(what string) {
	h := s.next
	if h == nil {
		return // quiescent
	}
	if s.pastNS > h.clock || s.pastNS == h.clock && s.pastID > h.id || h.ahead && !s.runsAhead(h) {
		panic(fmt.Sprintf("sim: %s at thread %q's clock %d cuts through accesses charged ahead to %d",
			what, h.name, h.clock, max(s.pastNS, h.clock)))
	}
}

// Poller is one wait loop cut at its Steps. Poll runs the next segment — the
// host-side code between two Steps, which must not call Step itself — on
// behalf of t, and returns either done or the cost of the Step that follows
// the segment.
type Poller interface {
	Poll(t *Thread) (cost uint64, done bool)
}

// Parker is a Poller that can tell when its wait is steady. When its thread
// loses the baton inside the inline loop (runPoll), Park is asked whether
// every segment from here on can only repeat a failed round, with the same
// result, until some thread stores to a line the rounds read — and whether
// each of those loads costs the base price and moves no line ownership. If
// so, Park arranges for each Store or CAS to such a line to call Wake first,
// at both of its halves, and the thread leaves the dispatch heap: its
// segments are not run until the wake replays them. Unpark undoes Park's
// arrangement; Wake calls it. No thread parks under a Chooser or while a
// crash is armed.
//
// When every live thread is in a steady wait, no store can ever come: the
// machine is deadlocked, and the run ends with the verdict (Run). A Parker
// that is a fmt.Stringer names there what it waits on.
type Parker interface {
	Poller
	Park(t *Thread) bool
	Unpark(t *Thread)
}

// Await runs p's wait loop on t. It is defined as
//
//	for { c, done := p.Poll(t); if done { return }; t.Step(c) }
//
// and runs exactly that under a Chooser. Under the built-in dispatch rule a
// thread parked in Await is never switched in just to poll: whichever thread
// holds the baton when it comes due runs its next segment inline, charging
// what Step charges at the same dispatch instant, and the thread is resumed
// only once a segment reports done or the machine has frozen. The segments,
// their order and their virtual instants are the definition loop's; only the
// coroutine switches between them go away (DESIGN.md §7). A steady Parker
// goes further and leaves the heap until a store wakes it; Wake then replays
// the segments it skipped, each charged at its own instant. A steady Parker
// left with nobody to wake it is the deadlock verdict.
//
// A bug panic inside a segment — wherever it runs — is recorded as the
// poller's fault and the poller unwinds with Crash{}.
func (t *Thread) Await(p Poller) {
	t.Settle()
	s := t.sch
	defer func() {
		if r := recover(); r != nil {
			s.seg, t.poll = nil, nil
			if !Crashed(r) {
				s.fail(t, r)
			}
			panic(Crash{})
		}
	}()
	for {
		s.seg = t
		c, done := p.Poll(t)
		s.seg = nil
		if done {
			return
		}
		if s.chooser != nil {
			t.Step(c)
			continue
		}
		t.poll = p
		t.Step(c)
		if t.poll == nil {
			return // the rest of the wait ran inline, to done
		}
		if len(s.heap.ts) == 0 && s.steady(t) {
			s.deadlock(t)
			panic(Crash{})
		}
		t.poll = nil
	}
}

// runPoll runs the pending poll segments of the parked thread n on the baton
// holder's goroutine, each followed by what Step charges, until n hands the
// baton on (s.next changes) or n must be switched in: its wait is done, or
// the machine froze — then n.poll is clear and n's park raises Crash{}. A bug
// panic in a segment is n's fault, not the baton holder's. A steady Parker
// hands the baton on by leaving the heap instead of re-entering it; one that
// runs ahead with nobody else in the heap is the deadlock verdict.
func (s *Scheduler) runPoll(n *Thread) {
	defer func() {
		if r := recover(); r != nil {
			s.seg, n.poll = nil, nil
			s.fail(n, r)
		}
	}()
	for !s.frozen {
		s.seg = n
		c, done := n.poll.Poll(n)
		s.seg = nil
		if done || s.charge(n, c) {
			break
		}
		if !s.runsAhead(n) {
			s.handoffs++
			if s.steady(n) {
				s.parks++
				s.parked = append(s.parked, n)
				s.next = s.heap.popMin()
				return
			}
			s.next = s.heap.replaceMin(n)
			return
		}
		if len(s.heap.ts) == 0 && s.steady(n) {
			s.deadlock(n)
		}
	}
	n.poll = nil
}

// steady asks t's pending poller whether its wait is steady (Parker) — never
// while a crash is armed, so that event indexes stay exact.
func (s *Scheduler) steady(t *Thread) bool {
	p, ok := t.poll.(Parker)
	return ok && s.crashAt == 0 && p.Park(t)
}

// deadlock records the verdict on a machine where every live thread waits
// steadily: the parked ones, and t (nil at an exit) whose wait was just found
// steady with nobody else in the heap. By the Parker contract each can only
// fail its rounds again until a store to a line it watches, and no thread is
// left to make one. The verdict names every waiter and what it waits on; the
// watches end and the machine freezes, so that the waiters unwind with
// Crash{} as after a bug panic, and Run raises the verdict.
func (s *Scheduler) deadlock(t *Thread) {
	ws := slices.Clone(s.parked)
	if t != nil {
		ws = append(ws, t)
	}
	slices.SortFunc(ws, func(a, b *Thread) int { return a.id - b.id })
	verdict := make([]string, len(ws))
	for i, w := range ws {
		verdict[i] = fmt.Sprintf("%q waits on %v", w.name, w.poll)
		w.poll.(Parker).Unpark(w)
	}
	for _, w := range s.parked {
		s.heap.push(w)
	}
	s.parked = s.parked[:0]
	if s.fault == "" {
		s.fault = "sim: deadlock: " + strings.Join(verdict, "; ")
	}
	s.frozen = true
}

// Wake returns the parked thread t (Parker) to the heap; a thread that is not
// parked is left alone. It is called by the baton holder when it is about to
// store to a line t watches. First it replays t's pending poll segments whose
// (clock, id) precedes the holder's — they would have run before the holder's
// code — each charged what Step charges. A store inside a poll segment run
// inline is its owner's: runPoll keeps the owner in s.next, so the horizon is
// the owner's dispatch, as on its own goroutine. Like Step, it panics with
// Crash{} if the machine froze, which only a bug panic in a replayed segment
// can do.
func (s *Scheduler) Wake(t *Thread) {
	if i := slices.Index(s.parked, t); i >= 0 {
		s.wake(i, s.next)
		if s.frozen {
			panic(Crash{})
		}
	}
}

// wakeAll wakes every parked waiter up to h's dispatch: the baton holder's at
// an observation point (Events, CrashAtEvent, CrashNow), the faulting
// thread's at a bug panic.
func (s *Scheduler) wakeAll(h *Thread) {
	for len(s.parked) > 0 {
		s.wake(len(s.parked)-1, h)
	}
}

// wake takes s.parked[i] off the parked set, replays its segments that
// precede h's dispatch, and pushes it back on the heap. A bug panic in a
// replayed segment is the waiter's fault, as in runPoll.
func (s *Scheduler) wake(i int, h *Thread) {
	t := s.parked[i]
	s.parked = slices.Delete(s.parked, i, i+1)
	s.replay(t, h)
	s.heap.push(t)
}

// replay ends t's watches and runs its pending segments whose dispatch
// precedes h's, each charged what Step charges. By the Parker contract every
// one of them fails its round again; one that ends the wait is t's bug.
func (s *Scheduler) replay(t, h *Thread) {
	seg := s.seg
	defer func() {
		if r := recover(); r != nil {
			s.seg, t.poll = seg, nil
			s.fail(t, r)
		}
	}()
	t.poll.(Parker).Unpark(t)
	for !s.frozen && t.less(h) {
		s.seg = t
		c, done := t.poll.Poll(t)
		s.seg = seg
		if done {
			panic("sim: a parked wait ended before its wake")
		}
		s.charge(t, c)
	}
}

// park hands the baton to next and returns when it comes back to t,
// re-raising a crash that happened while t was parked.
func (s *Scheduler) park(t, next *Thread) {
	s.handoffs++
	s.next = next
	s.transfer(t)
	if s.frozen {
		panic(Crash{})
	}
}

// Backoff is truncated exponential backoff for waits and retries: the ladder
// 16, 32, … ns, doubling until it reaches the caller's cap; no rung is above
// the cap. Under the virtual-time scheduler a blocked thread otherwise wakes
// every dozen nanoseconds, which is both unrealistic (real spinners execute
// PAUSE and get descheduled) and slow to simulate. The zero value is ready
// to use.
type Backoff struct{ cur uint64 }

// Next returns the current rung's cost and moves to the next rung: the Step
// a retry takes (t.Step(b.Next(cap))), or a poller returns from a segment
// (Await).
func (b *Backoff) Next(cap uint64) uint64 {
	if b.cur == 0 {
		b.cur = 16
	}
	c := min(b.cur, cap)
	if b.cur < cap {
		b.cur *= 2
	}
	return c
}

// Reset restarts the ladder.
func (b *Backoff) Reset() { b.cur = 0 }

// fail records a bug panic raised on thread t — the first one is kept for Run
// to re-raise — and crashes the machine, so that every other thread unwinds
// and exits too. The parked waiters' polls that precede t's dispatch ran
// before the panic, so they are replayed first.
func (s *Scheduler) fail(t *Thread, r any) {
	s.wakeAll(t)
	if s.fault == "" {
		s.fault = fmt.Sprintf("sim thread %q: %v", t.name, r)
	}
	s.frozen = true
}

// exit removes the thread from the scheduler and names its successor; the
// thread's coroutine then returns into the transfer loop of whoever resumed
// it, which passes the baton on, or ends Run when t was the last live thread.
// exit runs after Spawn's wrapper has recovered, so a panic here — a Chooser
// that panics or returns a bad index at this handoff — would unwind across
// the coroutine switch; it is recorded like a thread panic instead, and the
// remaining threads drain in clock order.
func (s *Scheduler) exit(t *Thread) {
	t.active = false
	s.live--
	s.next = nil
	if s.live == 0 {
		if s.cut != nil {
			s.heap.remove(s.cut)
			s.strike()
		}
		return
	}
	if len(s.heap.ts) == 0 {
		// Every live thread but t is in the heap or parked: all of them are
		// parked, and none can be woken.
		s.deadlock(nil)
	}
	if len(s.heap.ts) == 0 {
		// Impossible by the invariant above. Treat as a bug; with nobody to
		// hand the baton to, it goes back to Run.
		s.fail(t, "sim: no runnable thread but live threads remain")
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.fail(t, r)
			s.next = s.heap.popMin()
		}
	}()
	s.next = s.pickNext()
}

// CrashNow freezes the system from within a simulated thread. The calling
// thread panics with Crash{} on its next Step; threads suspended in Step
// panic when the baton reaches them. Parked waiters (Parker) are woken
// first, as by Events, so they unwind too. It panics if a thread has charged
// ahead (Charge) past the caller's dispatch: that cut would be inexact. A
// crash at an instant is CrashAtInstant's.
func (s *Scheduler) CrashNow() {
	s.checkCut("CrashNow")
	s.wakeAll(s.next)
	s.frozen = true
}

// less orders threads by (clock, id) for deterministic tie-breaking.
func (t *Thread) less(u *Thread) bool {
	if t.clock != u.clock {
		return t.clock < u.clock
	}
	return t.id < u.id
}

// threadHeap is a hand-rolled binary min-heap ordered by Thread.less. It
// replaces container/heap on the dispatch path: no interface boxing, no
// indirect Less/Swap calls, and the backing slice is pre-sized at New and
// reused for the scheduler's lifetime.
type threadHeap struct{ ts []*Thread }

func (h *threadHeap) push(t *Thread) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ts[i].less(h.ts[parent]) {
			break
		}
		h.ts[i], h.ts[parent] = h.ts[parent], h.ts[i]
		i = parent
	}
}

func (h *threadHeap) popMin() *Thread {
	ts := h.ts
	min := ts[0]
	n := len(ts) - 1
	ts[0] = ts[n]
	ts[n] = nil
	h.ts = ts[:n]
	h.down(0)
	return min
}

// replaceMin swaps t in for the current minimum in one sift-down: the
// handoff's pop-then-push collapsed into a single heap operation.
func (h *threadHeap) replaceMin(t *Thread) *Thread {
	min := h.ts[0]
	h.ts[0] = t
	h.down(0)
	return min
}

// remove deletes an arbitrary thread from the heap (the chooser's dispatch
// picks threads that are not the minimum). The vacated slot is refilled with
// the last element, which is then sifted in both directions. O(n) for the
// scan; the heap holds at most the thread count, which is tiny.
func (h *threadHeap) remove(t *Thread) {
	ts := h.ts
	for i, u := range ts {
		if u != t {
			continue
		}
		n := len(ts) - 1
		ts[i] = ts[n]
		ts[n] = nil
		h.ts = ts[:n]
		if i < n {
			h.up(i)
			h.down(i)
		}
		return
	}
	panic("sim: remove of thread not in heap")
}

func (h *threadHeap) up(i int) {
	ts := h.ts
	for i > 0 {
		parent := (i - 1) / 2
		if !ts[i].less(ts[parent]) {
			break
		}
		ts[i], ts[parent] = ts[parent], ts[i]
		i = parent
	}
}

func (h *threadHeap) down(i int) {
	ts := h.ts
	n := len(ts)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && ts[r].less(ts[l]) {
			m = r
		}
		if !ts[m].less(ts[i]) {
			break
		}
		ts[i], ts[m] = ts[m], ts[i]
		i = m
	}
}
