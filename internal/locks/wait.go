package locks

import (
	"fmt"
	"strings"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
)

// A Wait is the one wait loop of every construction. Each loop whose rounds
// only load — ending at most in a lock's CAS — is a Wait run by
// sim.Thread.Await: a worker waiting for its batch slot or its replica, a
// would-be combiner waiting for a lock, an applier waiting for a log entry's
// full mark, a combiner stalled on the flush boundary, a reader waiting out a
// writer. A round loads the watched word; on a miss it loads the second word,
// if any; then it steps the backoff ladder. The rounds are the loads and
// Steps of the Load / backoff loop the Wait replaces, in the same order, cut
// into poll segments at their Steps. A loop whose rounds store or CAS is a
// retry instead, spelled t.Step(b.Next(cap)).
//
// A Wait is also a sim.Parker: between two rounds, when neither word ends the
// wait and every line a round loads is shared or the waiter's own, each later
// round can only fail the same way until some thread stores to one of those
// lines. The waiter then watches them (nvm.Memory.Watch) and leaves the
// dispatch heap; the store wakes it, and its skipped rounds are replayed
// (DESIGN.md §7, "Parked pollers"). A wait that ends on its own — after
// Rounds rounds — never parks.
//
// A caller arms a Wait by assigning a fresh value to the one its thread owns
// (Waits.Of), so no wait allocates.
type Wait struct {
	// Mem[Off] is the watched word: the wait is served once it is ≥ Want, or
	// == Want with Exact. A nil Mem waits on the second word alone.
	Mem   *nvm.Memory
	Off   uint64
	Want  uint64
	Exact bool
	// The second word, loaded after every miss, is Lock's word or
	// Flag[FlagOff]: the wait ends unserved once the lock looks free, or once
	// the flag is ≠ 0 — the caller acts on it and resumes with Retry.
	Lock    *TryLock
	Flag    *nvm.Memory
	FlagOff uint64
	// Cap caps the backoff ladder B. A loop whose ladder runs on across the
	// wait seeds B from its own and takes it back afterwards.
	Cap uint64
	B   sim.Backoff
	// Rounds, if nonzero, ends the wait unserved after that many rounds.
	Rounds int

	// Served reports, once Await returned, that the watched word ended the
	// wait.
	Served bool

	seg int
	n   int // rounds run
}

// Poll segments. One round is segLoad (announce the watched load, or the
// second word's when there is no watched word), segRead (read it; on a miss
// announce the second word's load, if any), segProbe (read it) and the
// backoff Step.
const (
	segLoad = iota
	segRead
	segProbe
	segSpin // the backoff alone: Retry's round
)

// Retry resumes the wait at the backoff Step of a round: after a lost CAS on
// the lock, or after the caller acted on the flag.
func (w *Wait) Retry() { w.seg = segSpin }

// Poll runs the wait's next segment (sim.Poller).
func (w *Wait) Poll(t *sim.Thread) (uint64, bool) {
	switch w.seg {
	case segLoad:
		if w.Rounds != 0 && w.n == w.Rounds {
			return 0, true
		}
		if w.Mem == nil {
			w.seg = segProbe
			m, off := w.second()
			return m.LoadBegin(t, off), false
		}
		w.seg = segRead
		return w.Mem.LoadBegin(t, w.Off), false
	case segRead:
		if w.Served = w.hit(w.Mem.LoadEnd(w.Off)); w.Served {
			return 0, true
		}
		if m, off := w.second(); m != nil {
			w.seg = segProbe
			return m.LoadBegin(t, off), false
		}
	case segProbe:
		if m, off := w.second(); w.secondHit(m.LoadEnd(off)) {
			return 0, true
		}
	}
	w.seg = segLoad
	w.n++
	return w.B.Next(w.Cap), false
}

// Park reports whether the wait is steady (sim.Parker): t is between two
// rounds, no round limit can end the wait, neither word ends it, and each
// line a round loads costs t the base price. Then t watches those lines.
func (w *Wait) Park(t *sim.Thread) bool {
	if w.seg != segLoad || w.Rounds != 0 {
		return false
	}
	steady := true
	if w.Mem != nil {
		v, ok := w.Mem.Watch(t, w.Off)
		steady = ok && !w.hit(v)
	}
	if m, off := w.second(); steady && m != nil {
		v, ok := m.Watch(t, off)
		steady = ok && !w.secondHit(v)
	}
	if !steady {
		w.Unpark(t)
	}
	return steady
}

// Unpark ends the watches Park set (sim.Parker).
func (w *Wait) Unpark(t *sim.Thread) {
	if w.Mem != nil {
		w.Mem.Unwatch(t)
	}
	if m, _ := w.second(); m != nil {
		m.Unwatch(t)
	}
}

// String names the lines the wait watches and what ends it, for the
// scheduler's deadlock verdict.
func (w *Wait) String() string {
	var ends []string
	word := func(m *nvm.Memory, off uint64, cond string) {
		ends = append(ends, fmt.Sprintf("%s[line %d] %s", m.Name(), off/nvm.WordsPerLine, cond))
	}
	if w.Mem != nil {
		op := "≥"
		if w.Exact {
			op = "=="
		}
		word(w.Mem, w.Off, fmt.Sprintf("%s %d", op, w.Want))
	}
	if w.Lock != nil {
		word(w.Lock.m, w.Lock.off, "free")
	} else if w.Flag != nil {
		word(w.Flag, w.FlagOff, "≠ 0")
	}
	return strings.Join(ends, " or ")
}

// hit reports whether the watched word v serves the wait.
func (w *Wait) hit(v uint64) bool {
	if w.Exact {
		return v == w.Want
	}
	return v >= w.Want
}

// second is the word a round loads after a miss; nil if none.
func (w *Wait) second() (*nvm.Memory, uint64) {
	if w.Lock != nil {
		return w.Lock.m, w.Lock.off
	}
	return w.Flag, w.FlagOff
}

// secondHit reports whether the second word v ends the wait: a free lock, a
// raised flag.
func (w *Wait) secondHit(v uint64) bool { return (v == 0) == (w.Lock != nil) }

// Waits holds one Wait per simulated thread. A thread waits on one thing at a
// time, so one Wait serves every wait it makes; it is allocated at the
// thread's first wait and reused, so a warm wait allocates nothing. A caller
// that runs other waits while its own is unfinished — helping between two
// Awaits — saves its Wait by value and restores it.
type Waits struct{ ws []*Wait }

// Of returns t's Wait.
func (c *Waits) Of(t *sim.Thread) *Wait {
	id := t.ID()
	for id >= len(c.ws) {
		c.ws = append(c.ws, nil)
	}
	if c.ws[id] == nil {
		c.ws[id] = new(Wait)
	}
	return c.ws[id]
}
