// Package linearize verifies recorded invoke/response histories against
// pluggable sequential specifications — a Wing&Gong/Lowe (WGL) checker in
// the style of Porcupine, extended with the crash-aware obligations of
// Izraelevitz et al.'s durable linearizability definitions:
//
//   - every operation whose response was observed before a crash
//     (Completed) must take effect exactly once;
//   - an operation that was invoked but cut off by the crash (InFlight) may
//     take effect at most once — it either linearizes or vanishes;
//   - an in-flight operation recovery resolved via detectable execution has
//     a definite, queryable answer the post-crash state must corroborate:
//     resolved-committed (InFlightCommitted) operations must linearize with
//     exactly the resolved result and never fall into a buffered lost
//     suffix; resolved-never-applied (InFlightNever) operations must not
//     take effect at all;
//   - the recovered state must be the state of a legal linearization
//     (durable), or of one consistent cut of one, with at most Allowance
//     completed updates after the cut (buffered durable, PREP-Buffered's
//     ε+β−1 suffix-loss bound).
//
// Histories are recorded by Recorder (record.go) with the simulator's
// virtual clock: timestamps are cheap, deterministic, and consistent with
// the scheduler's real-time order (the dispatcher always runs the
// minimum-clock thread, so an operation that returned before another was
// invoked has the smaller clock). Two operations with equal timestamps are
// treated as concurrent, which can only admit more linearizations, never
// reject a legal history.
//
// Tractability: Model.Partition splits a history into independently
// checkable sub-problems — the set models partition by key, collapsing the
// exponential WGL search into many trivial per-key searches — and the
// search memoizes (linearized-set, state) configurations à la Lowe. A
// buffered crash cut is one instant shared by every partition (cut.go).
package linearize

import (
	"fmt"
	"slices"
	"sort"

	"prepuc/internal/uc"
)

// Class says how an operation relates to the epoch's crash.
type Class uint8

const (
	// Completed operations returned before the crash; their results were
	// observed and they must take effect.
	Completed Class = iota
	// InFlight operations were invoked but never returned (the crash
	// unwound them). They may take effect at most once, with any result.
	InFlight
	// InFlightCommitted operations were cut off by the crash, but recovery
	// resolved them as committed with a definite result (detectable
	// execution's operation descriptors). They must take effect exactly
	// once, with exactly that result — and because the descriptor protocol
	// resolves only operations whose effect is inside the recovered state,
	// they can never fall after a buffered crash cut.
	InFlightCommitted
	// InFlightNever operations were cut off by the crash and recovery
	// resolved them as never applied. They must not take effect: a
	// recovered state explicable only by such an operation's effect is a
	// detectability violation (the client was told "safe to resubmit").
	InFlightNever
)

// Op is one recorded operation.
type Op struct {
	// Client identifies the invoking worker; one client's operations must
	// not overlap in time.
	Client int
	// Code, A0, A1 encode the operation as in uc.Op.
	Code, A0, A1 uint64
	// Result is the observed response (meaningful only when Completed or
	// InFlightCommitted — for the latter it is the result recovery's
	// descriptor scan reported).
	Result uint64
	// Invoke and Return are virtual-clock timestamps. Return is ignored
	// for InFlight operations (they never returned).
	Invoke, Return uint64
	// Class is Completed or InFlight.
	Class Class
}

// Problem is one independently checkable sub-history produced by
// Model.Partition: its operations, boundary states, and the sequential
// step semantics for the partition's state representation.
type Problem struct {
	// Label names the partition in failure reports (e.g. "key=17"). It is
	// called for the failing partition only: a check that passes builds no
	// name.
	Label func(p *Problem) string
	// Ops is the partition's slice of the history.
	Ops []Op
	// Init is the partition's state at the start of the epoch.
	Init any
	// Recovered is the observed state after the epoch; only meaningful
	// when HasRecovered. Without an observation the final state is
	// unconstrained and only response legality is checked.
	Recovered    any
	HasRecovered bool
	// Step applies one operation to an immutable state and returns the
	// successor state and the operation's result.
	Step func(s any, code, a0, a1 uint64) (any, uint64)
	// Key returns a canonical encoding of a state for memoization. Two
	// states must encode equal iff they are equal (no lossy hashing — a
	// collision could prune a branch that would have succeeded).
	Key func(s any) string
	// Equal compares two states.
	Equal func(a, b any) bool
	// Rank optionally orders candidate exploration (lower ranks tried
	// first). It is a search heuristic only — it changes which branch the
	// DFS tries first, never which histories are accepted. The queue model
	// uses it to try concurrent enqueues in the order their values are
	// later dequeued: a wrong enqueue order is only refuted when the value
	// surfaces, queue-depth steps later, so the unranked search backtracks
	// exponentially in the prefill depth.
	Rank func(op *Op) int
}

// Model is a pluggable sequential specification.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Empty returns the model's empty full state.
	Empty() any
	// Apply runs one operation against a full state (sequentially — used
	// by Replay to compute prefill and expected states). It may mutate and
	// return s.
	Apply(s any, code, a0, a1 uint64) (any, uint64)
	// Partition splits an epoch into independent sub-problems. init is the
	// epoch's initial full state; recovered the observed final full state
	// (ignored unless hasRecovered). It returns an error for operations
	// the model does not understand, or for state changes no operation can
	// explain (e.g. an untouched key whose value changed).
	Partition(ops []Op, init, recovered any, hasRecovered bool) ([]Problem, error)
}

// Options selects the correctness condition for one epoch.
type Options struct {
	// Buffered selects buffered durable linearizability: the recovered
	// state is the state of one consistent cut of a linearization, and the
	// completed updates after the cut — operations whose step changes the
	// state — are lost, at most Allowance of them (PREP-Buffered's ε+β−1).
	// When false, the check is strict durable linearizability: the
	// recovered state must reflect every completed operation.
	Buffered bool
	// Allowance is the completed-update loss budget (Buffered only).
	Allowance int
}

// Result is the outcome of checking one epoch.
type Result struct {
	// OK reports whether a legal linearization exists.
	OK bool
	// Ops and Partitions count what was checked.
	Ops, Partitions int
	// Lost is the least number of completed updates any admissible cut
	// loses (0 unless Buffered).
	Lost int
	// FailedPartition and Reason describe the failure: the partition no
	// linearization of fits or, for a buffered epoch, the one that rejected
	// the last candidate cut instant.
	FailedPartition string
	Reason          string
}

// String renders the result.
func (r Result) String() string {
	if r.OK {
		return fmt.Sprintf("ok: %d ops in %d partitions, lost=%d", r.Ops, r.Partitions, r.Lost)
	}
	return fmt.Sprintf("FAIL at %s: %s (%d ops in %d partitions)",
		r.FailedPartition, r.Reason, r.Ops, r.Partitions)
}

// CheckEpoch verifies one epoch of recorded operations against the model.
// init is the full state at the start of the epoch (nil = Model.Empty());
// recovered is the observed full state after the epoch — pass nil to leave
// the final state unconstrained (crash-free checking of responses only).
// A buffered epoch's cut is one instant shared by every partition
// (oneCut).
func CheckEpoch(m Model, init any, ops []Op, recovered any, opt Options) Result {
	if init == nil {
		init = m.Empty()
	}
	problems, err := m.Partition(ops, init, recovered, recovered != nil)
	if err != nil {
		return Result{OK: false, Ops: len(ops), FailedPartition: m.Name(), Reason: err.Error()}
	}
	res := Result{OK: true, Ops: len(ops), Partitions: len(problems)}
	fail := func(p *Problem, reason string) Result {
		res.OK, res.FailedPartition, res.Reason = false, p.Label(p), reason
		return res
	}
	if !opt.Buffered {
		for i := range problems {
			if newSearch(&problems[i], 0).lossDurable() > 0 {
				return fail(&problems[i], fmt.Sprintf("no linearization of %d ops", len(problems[i].Ops)))
			}
		}
		return res
	}
	ss := make([]*search, len(problems))
	for i := range problems {
		ss[i] = newSearch(&problems[i], opt.Allowance)
	}
	lost, failed, reason := oneCut(ss, opt.Allowance)
	if failed != nil {
		return fail(failed, reason)
	}
	res.Lost = lost
	return res
}

// Replay applies ops sequentially to a full state (nil = empty) and
// returns the resulting state — how callers compute an epoch's expected
// initial state from prefill operations.
func Replay(m Model, init any, ops []uc.Op) any {
	s := init
	if s == nil {
		s = m.Empty()
	}
	for _, op := range ops {
		s, _ = m.Apply(s, op.Code, op.A0, op.A1)
	}
	return s
}

// entry is one operation in the invoke-sorted working list.
type entry struct {
	op   *Op
	idx  int // bit index in the linearized set
	ret  uint64
	rank int // exploration priority from Problem.Rank (0 if none)
	// keep marks an operation the cut must follow, excl one it must
	// precede (set per cut by search.constrain).
	keep, excl bool
	prev, next *entry
}

// search is the WGL search over one partition: the least number of
// completed updates a linearization must place after the crash cut, under
// the cut's keep/excl constraints.
type search struct {
	p       *Problem
	budget  int // losses above budget are infeasible: reported as budget+1
	ranked  bool
	entries []entry
	head    *entry // sentinel; list holds unlinearized entries, invoke-sorted
	bits    []uint64
	memo    map[string]int
	// keeps and obls count the entries the cut must follow and the
	// obligations (Completed and InFlightCommitted) of the current cut.
	keeps, obls int
	// rets and invs are the sorted Return stamps of the completed entries
	// and the Invoke stamps of every entry; class and classLoss cache the
	// last cut instant's constraint class and its loss (oneCut).
	rets, invs []uint64
	class      [2]int
	classLoss  int
}

func newSearch(p *Problem, budget int) *search {
	n := 0
	for i := range p.Ops {
		// InFlightNever operations are excluded from the working list: they
		// must not linearize, and — having never returned — they cannot
		// block any other operation either. If the recovered state needs
		// their effect, no linearization of the remaining operations reaches
		// it and the search fails, which is exactly the violation.
		if p.Ops[i].Class != InFlightNever {
			n++
		}
	}
	s := &search{
		p: p, budget: budget, ranked: p.Rank != nil,
		entries: make([]entry, n), head: &entry{},
		bits: make([]uint64, (n+63)/64), memo: make(map[string]int),
		class: [2]int{-1, -1},
	}
	order := make([]*entry, 0, n)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Class == InFlightNever {
			continue
		}
		ret := op.Return
		if op.Class != Completed {
			ret = ^uint64(0) // never returned: blocks nothing
		} else {
			s.rets = append(s.rets, ret)
		}
		s.invs = append(s.invs, op.Invoke)
		rank := 0
		if p.Rank != nil {
			rank = p.Rank(op)
		}
		idx := len(order)
		s.entries[idx] = entry{op: op, idx: idx, ret: ret, rank: rank}
		order = append(order, &s.entries[idx])
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].op.Invoke != order[b].op.Invoke {
			return order[a].op.Invoke < order[b].op.Invoke
		}
		return order[a].op.Client < order[b].op.Client
	})
	slices.Sort(s.rets)
	slices.Sort(s.invs)
	cur := s.head
	for _, e := range order {
		cur.next = e
		e.prev = cur
		cur = e
	}
	return s
}

// lossDurable is 0 if the partition linearizes with every completed
// operation before the cut — the durable condition — and infeasible if not.
func (s *search) lossDurable() int {
	return s.constrain(func(op *Op) (keep, excl bool) { return op.Class == Completed, false })
}

// lossAt is the partition's least loss with the crash cut at instant t:
// every completed operation that returned before t precedes the cut, every
// operation invoked after t follows it.
func (s *search) lossAt(t uint64) int {
	return s.constrain(func(op *Op) (keep, excl bool) {
		return op.Class == Completed && op.Return < t, op.Invoke > t
	})
}

// lossFree is the partition's least loss with its cut placed freely: with
// one partition every prefix of its linearization is a consistent cut, so
// this is the loss; with more it is each partition's lower bound.
func (s *search) lossFree() int {
	return s.constrain(func(*Op) (keep, excl bool) { return false, false })
}

// constrain runs the search with the cut constraints at assigns to each
// operation. A resolved-committed operation's effect is inside the
// recovered state by construction, so it always precedes the cut.
func (s *search) constrain(at func(op *Op) (keep, excl bool)) int {
	s.keeps, s.obls = 0, 0
	for i := range s.entries {
		e := &s.entries[i]
		e.keep, e.excl = at(e.op)
		switch e.op.Class {
		case InFlightCommitted:
			e.keep = true
			s.obls++
		case Completed:
			s.obls++
		}
		if e.keep {
			if e.excl {
				return s.budget + 1
			}
			s.keeps++
		}
	}
	clear(s.memo)
	return s.dfs(s.p.Init, false, s.keeps, s.obls)
}

// dfs returns the least loss that completes the current configuration:
// state is the sequential state after the linearized set (s.bits), cut
// whether the crash cut is behind it, keepLeft and oblLeft the entries
// still to place that must precede the cut and that must linearize at all.
// A configuration's answer depends on nothing else, so it is memoized.
func (s *search) dfs(state any, cut bool, keepLeft, oblLeft int) int {
	if cut && oblLeft == 0 {
		return 0 // the rest is in flight: it may vanish
	}
	key := s.memoKey(cut, state)
	if v, seen := s.memo[key]; seen {
		return v
	}
	best := s.budget + 1
	// The cut may sit here once everything it must follow is placed and
	// the state is the recovered one.
	if !cut && keepLeft == 0 && (!s.p.HasRecovered || s.p.Equal(state, s.p.Recovered)) {
		best = min(best, s.dfs(state, true, 0, oblLeft))
	}
	// Candidates: unlinearized ops x, scanned in invoke order, such that no
	// other unlinearized y has ret(y) < inv(x). Only earlier-invoked
	// entries can block x, so a running minimum of scanned returns decides,
	// and once it drops below the next invoke every later entry is blocked.
	var cbuf [16]*entry
	cands := cbuf[:0]
	minRet := ^uint64(0)
	for e := s.head.next; e != nil; e = e.next {
		if e.op.Invoke > minRet {
			break
		}
		if !e.excl || cut {
			cands = append(cands, e)
		}
		if e.ret < minRet {
			minRet = e.ret
		}
	}
	if s.ranked {
		// Stable insertion sort by rank: candidate sets are tiny (bounded
		// by thread count) and mostly already ordered.
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j-1].rank > cands[j].rank; j-- {
				cands[j-1], cands[j] = cands[j], cands[j-1]
			}
		}
	}
	for _, e := range cands {
		if best == 0 {
			break
		}
		s2, res := s.p.Step(state, e.op.Code, e.op.A0, e.op.A1)
		if e.op.Class != InFlight && res != e.op.Result {
			continue
		}
		// A completed update after the cut is lost.
		cost := 0
		if cut && e.op.Class == Completed && !s.p.Equal(s2, state) {
			cost = 1
		}
		if cost >= best {
			continue
		}
		keep, obl := keepLeft, oblLeft
		if e.keep {
			keep--
		}
		if c := e.op.Class; c == Completed || c == InFlightCommitted {
			obl--
		}
		e.prev.next = e.next
		if e.next != nil {
			e.next.prev = e.prev
		}
		s.bits[e.idx>>6] |= 1 << (uint(e.idx) & 63)
		best = min(best, cost+s.dfs(s2, cut, keep, obl))
		s.bits[e.idx>>6] &^= 1 << (uint(e.idx) & 63)
		e.prev.next = e
		if e.next != nil {
			e.next.prev = e
		}
	}
	s.memo[key] = best
	return best
}

// memoKey encodes a configuration: the linearized set, the cut, the state.
func (s *search) memoKey(cut bool, state any) string {
	key := make([]byte, 0, len(s.bits)*8+1)
	for _, w := range s.bits {
		key = append(key, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	if cut {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	return string(key) + s.p.Key(state)
}
