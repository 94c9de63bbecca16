// Package fault supplies pluggable crash-time persistence adversaries for
// the simulated NVM substrate.
//
// When a crash hits, every cache line that was issued through an
// asynchronous flush (CLWB/CLFLUSHOPT) but not yet covered by a fence is in
// an undefined persistence state: real hardware may or may not have written
// it back. The nvm package's default models this as an independent fair coin
// flip per line. That is a *probabilistic* adversary — across n pending
// lines it hits any particular worst case (say, exactly one missing line)
// with probability 2^-n, so schedules that expose a missing-fence bug are
// found only by luck. The policies here replace the coin with deterministic
// adversaries that enumerate the worst cases directly:
//
//	PersistAll  every pending line reaches the media (the best case; useful
//	            as a control — a failure under PersistAll is never a
//	            fence-ordering bug).
//	DropAll     no pending line reaches the media — the behaviour of a
//	            machine whose write-pending queues are lost wholesale. Any
//	            protocol that completes an operation before fencing its
//	            lines fails under DropAll.
//	CoinFlip(p) independent biased coin per line (p = persist probability);
//	            CoinFlip(0.5) is the substrate's default behaviour under an
//	            explicit, separately seeded stream.
//	Targeted    drops exactly one pending line per crash and persists the
//	            rest — the state a single omitted SFENCE produces. Which
//	            line is dropped advances with every crash, so an iterated
//	            harness sweeps all single-line-missing states
//	            deterministically instead of waiting for the coin to land
//	            on each of them.
//
// The interface is deliberately expressed in plain integers so that nvm can
// depend on fault without an import cycle: the substrate presents its
// pending lines as an ordered sequence and asks, per index, whether the line
// persists.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Policy decides, at crash time, which flushed-but-unfenced lines reach the
// media. Policies may be stateful across crashes (Targeted is); a policy
// value must only be attached to one machine's crash lineage.
type Policy interface {
	// BeginCrash is called once per crash with the number of pending lines,
	// before any PersistPending query for that crash.
	BeginCrash(pending int)
	// PersistPending reports whether pending line i (0 ≤ i < pending, in
	// deterministic issue order) reaches the media.
	PersistPending(i int) bool
}

type persistAll struct{}

// PersistAll returns the policy under which every pending line persists.
func PersistAll() Policy { return persistAll{} }

func (persistAll) BeginCrash(int)          {}
func (persistAll) PersistPending(int) bool { return true }

type dropAll struct{}

// DropAll returns the policy under which no pending line persists.
func DropAll() Policy { return dropAll{} }

func (dropAll) BeginCrash(int)          {}
func (dropAll) PersistPending(int) bool { return false }

type coinFlip struct {
	p     float64
	state uint64
}

// CoinFlip returns the policy that persists each pending line independently
// with probability p, drawn from a deterministic stream seeded by seed.
func CoinFlip(p float64, seed uint64) Policy {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("fault: CoinFlip probability %v out of [0,1]", p))
	}
	if seed == 0 {
		seed = 0x1234_5678_9ABC_DEF1
	}
	return &coinFlip{p: p, state: seed}
}

func (c *coinFlip) BeginCrash(int) {}
func (c *coinFlip) PersistPending(int) bool {
	x := c.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.state = x
	// 53 uniform mantissa bits give an unbiased comparison against p.
	return float64(x>>11)/float64(1<<53) < c.p
}

type targeted struct {
	crashes int // crashes materialized so far
	drop    int // pending index dropped at the current crash; -1 = none
}

// Targeted returns the policy that drops exactly one pending line per crash
// (persisting all others), sweeping which line is dropped across successive
// crashes: crash k drops pending line (first + k) mod n. It is strictly more
// adversarial than the fair coin for missing-fence bugs: the coin produces a
// given single-line-missing state with probability 2^-n, while Targeted
// enumerates all n of them in n crashes.
func Targeted(first int) Policy {
	if first < 0 {
		first = 0
	}
	return &targeted{crashes: first, drop: -1}
}

func (p *targeted) BeginCrash(pending int) {
	if pending == 0 {
		p.drop = -1
	} else {
		p.drop = p.crashes % pending
	}
	p.crashes++
}

func (p *targeted) PersistPending(i int) bool { return i != p.drop }

// subsetMax is the widest pending set Subset can decide exactly: one bit
// per pending line in a uint64 mask.
const subsetMax = 64

type subset struct{ mask uint64 }

// Subset returns the policy that persists exactly the pending lines whose
// bit is set in mask (pending line i persists iff mask>>i&1 == 1). It is the
// exhaustive explorer's adversary: enumerating every mask over an n-line
// pending set visits all 2^n crash materializations, subsuming PersistAll
// (all bits set), DropAll (zero), and every Targeted single-drop state.
// Stateless, so one value may be shared across machines; crashes with more
// than 64 pending lines panic rather than silently truncate the enumeration.
func Subset(mask uint64) Policy { return subset{mask: mask} }

func (s subset) BeginCrash(pending int) {
	if pending > subsetMax {
		panic(fmt.Sprintf("fault: Subset mask covers %d lines, crash has %d pending", subsetMax, pending))
	}
}

func (s subset) PersistPending(i int) bool { return s.mask>>i&1 == 1 }

// Parse resolves a policy by its CLI spelling:
//
//	""             nil (the substrate's built-in fair coin)
//	"persistall"   PersistAll
//	"dropall"      DropAll
//	"coinflip"     CoinFlip(0.5, seed)
//	"coinflip=P"   CoinFlip(P, seed), P a float in [0,1]
//	"targeted"     Targeted(0)
//	"targeted=K"   Targeted(K), starting the drop sweep at pending index K
//	"subset=M"     Subset(M), M the persist bitmask (decimal, or 0x... hex)
func Parse(spec string, seed uint64) (Policy, error) {
	name, arg, hasArg := strings.Cut(spec, "=")
	switch name {
	case "":
		return nil, nil
	case "persistall":
		return PersistAll(), nil
	case "dropall":
		return DropAll(), nil
	case "coinflip":
		p := 0.5
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || v < 0 || v > 1 {
				return nil, fmt.Errorf("fault: bad coinflip probability %q", arg)
			}
			p = v
		}
		return CoinFlip(p, seed), nil
	case "targeted":
		first := 0
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("fault: bad targeted start index %q", arg)
			}
			first = v
		}
		return Targeted(first), nil
	case "subset":
		if !hasArg {
			return nil, fmt.Errorf("fault: subset requires a mask (subset=M)")
		}
		mask, err := strconv.ParseUint(arg, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad subset mask %q", arg)
		}
		return Subset(mask), nil
	default:
		return nil, fmt.Errorf("fault: unknown policy %q (want dropall, persistall, coinflip[=p], targeted[=k] or subset=m)", spec)
	}
}
