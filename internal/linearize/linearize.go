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
//     (durable), or of a prefix of one with at most Allowance completed
//     operations lost to the crash (buffered durable, PREP-Buffered's
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
// search memoizes (linearized-set, state) configurations à la Lowe.
package linearize

import (
	"fmt"
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
	// Label names the partition in failure reports (e.g. "key=17").
	Label string
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
	// state may reflect only a prefix of the linearization, losing up to
	// Allowance completed operations (PREP-Buffered's ε+β−1). When false,
	// the check is strict durable linearizability: the recovered state
	// must reflect every completed operation.
	Buffered bool
	// Allowance is the completed-operation loss budget (Buffered only).
	Allowance int
}

// Result is the outcome of checking one epoch.
type Result struct {
	// OK reports whether a legal linearization exists.
	OK bool
	// Ops and Partitions count what was checked.
	Ops, Partitions int
	// Lost is the minimal number of completed operations that had to be
	// declared lost (0 unless Buffered).
	Lost int
	// FailedPartition and Reason describe the first failing partition.
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
//
// The Allowance budget is global: partitions consume it greedily by their
// individual minimum loss, which sums to the global minimum because
// partitions are independent.
func CheckEpoch(m Model, init any, ops []Op, recovered any, opt Options) Result {
	if init == nil {
		init = m.Empty()
	}
	problems, err := m.Partition(ops, init, recovered, recovered != nil)
	if err != nil {
		return Result{OK: false, Ops: len(ops), FailedPartition: m.Name(), Reason: err.Error()}
	}
	res := Result{OK: true, Ops: len(ops), Partitions: len(problems)}
	remaining := 0
	if opt.Buffered {
		remaining = opt.Allowance
	}
	for i := range problems {
		p := &problems[i]
		lost, ok := checkProblem(p, opt.Buffered, remaining)
		if !ok {
			return Result{
				OK: false, Ops: len(ops), Partitions: len(problems),
				Lost: res.Lost, FailedPartition: p.Label,
				Reason: fmt.Sprintf("no linearization of %d ops within loss budget %d",
					len(p.Ops), remaining),
			}
		}
		res.Lost += lost
		remaining -= lost
	}
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

// checkProblem finds the minimal completed-operation loss with which the
// partition linearizes, bounded by budget. In strict (non-buffered) mode
// the loss is always 0 and a single search decides.
func checkProblem(p *Problem, buffered bool, budget int) (lost int, ok bool) {
	if !buffered {
		return 0, newSearch(p, false, 0).run()
	}
	// Iterate the budget upward: the first feasible k is the partition's
	// minimum loss. Most partitions succeed immediately at k=0.
	for k := 0; k <= budget; k++ {
		if newSearch(p, true, k).run() {
			return k, true
		}
	}
	return 0, false
}

// entry is one operation in the invoke-sorted working list.
type entry struct {
	op         *Op
	idx        int // bit index in the linearized set
	ret        uint64
	rank       int // exploration priority from Problem.Rank (0 if none)
	prev, next *entry
}

// search is one WGL run over a partition with a fixed loss budget.
type search struct {
	p        *Problem
	buffered bool
	budget   int
	ranked   bool
	head     *entry // sentinel; list holds unlinearized entries, invoke-sorted
	bits     []uint64
	memo     map[string]struct{}
}

func newSearch(p *Problem, buffered bool, budget int) *search {
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
	entries := make([]entry, n)
	order := make([]*entry, 0, n)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Class == InFlightNever {
			continue
		}
		ret := op.Return
		if op.Class != Completed {
			ret = ^uint64(0) // never returned: blocks nothing
		}
		rank := 0
		if p.Rank != nil {
			rank = p.Rank(op)
		}
		idx := len(order)
		entries[idx] = entry{op: op, idx: idx, ret: ret, rank: rank}
		order = append(order, &entries[idx])
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].op.Invoke != order[b].op.Invoke {
			return order[a].op.Invoke < order[b].op.Invoke
		}
		return order[a].op.Client < order[b].op.Client
	})
	head := &entry{}
	cur := head
	for _, e := range order {
		cur.next = e
		e.prev = cur
		cur = e
	}
	return &search{
		p: p, buffered: buffered, budget: budget, ranked: p.Rank != nil,
		head: head, bits: make([]uint64, (n+63)/64),
		memo: make(map[string]struct{}),
	}
}

func (s *search) run() bool {
	// Obligations: operations that must linearize. Completed ones observed
	// their response; InFlightCommitted ones have a recovery-issued verdict
	// the post-crash state must corroborate.
	completed := 0
	for i := range s.p.Ops {
		if c := s.p.Ops[i].Class; c == Completed || c == InFlightCommitted {
			completed++
		}
	}
	return s.dfs(s.p.Init, false, 0, completed)
}

// dfs explores linearization extensions from the current configuration:
// state is the sequential state after the linearized set (s.bits),
// cutTaken and lost track the buffered crash cut, completedLeft counts
// completed operations not yet linearized.
func (s *search) dfs(state any, cutTaken bool, lost int, completedLeft int) bool {
	stateOK := !s.p.HasRecovered || s.p.Equal(state, s.p.Recovered)
	if completedLeft == 0 {
		if s.buffered {
			// The cut may sit here, at the very end, if the state matches.
			if cutTaken || stateOK {
				return true
			}
		} else if stateOK {
			return true
		}
		// State mismatch: in-flight operations may still need to take
		// effect (or, buffered, the cut may come later) — keep searching.
	}
	if !s.memoAdd(cutTaken, lost, state) {
		return false
	}
	// Buffered: take the crash cut here if the observed recovered state
	// matches; everything linearized afterwards is lost to the crash.
	if s.buffered && !cutTaken && stateOK {
		if s.dfs(state, true, lost, completedLeft) {
			return true
		}
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
		cands = append(cands, e)
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
		if cutTaken && e.op.Class == InFlightCommitted {
			// A resolved-committed operation's effect is inside the
			// recovered state by construction; it cannot land in the lost
			// suffix after the crash cut.
			continue
		}
		s2, res := s.p.Step(state, e.op.Code, e.op.A0, e.op.A1)
		legal := e.op.Class == InFlight || res == e.op.Result
		if legal {
			lost2 := lost
			if cutTaken && e.op.Class == Completed {
				lost2++
			}
			if !cutTaken || lost2 <= s.budget {
				left2 := completedLeft
				if c := e.op.Class; c == Completed || c == InFlightCommitted {
					left2--
				}
				e.prev.next = e.next
				if e.next != nil {
					e.next.prev = e.prev
				}
				s.bits[e.idx>>6] |= 1 << (uint(e.idx) & 63)
				ok := s.dfs(s2, cutTaken, lost2, left2)
				s.bits[e.idx>>6] &^= 1 << (uint(e.idx) & 63)
				e.prev.next = e
				if e.next != nil {
					e.next.prev = e
				}
				if ok {
					return true
				}
			}
		}
	}
	return false
}

// memoAdd records the configuration, reporting false if it was already
// explored.
func (s *search) memoAdd(cutTaken bool, lost int, state any) bool {
	key := make([]byte, 0, len(s.bits)*8+len(s.p.Ops)/4+10)
	for _, w := range s.bits {
		key = append(key, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	cut := byte(0)
	if cutTaken {
		cut = 1
	}
	key = append(key, cut, byte(lost), byte(lost>>8))
	k := string(key) + s.p.Key(state)
	if _, seen := s.memo[k]; seen {
		return false
	}
	s.memo[k] = struct{}{}
	return true
}
