// Package shard routes operations across S fully independent PREP-UC
// instances by partitioning the key space. One universal construction is one
// combiner pipeline — its throughput ceiling is structural — so production
// scale means many: each shard owns its own replicas, oplog, persistent
// generations, descriptor region and recovery state machine, and the router
// is the only thing the shards share.
//
// The routing invariant: every operation on key k is executed by shard
// Route(k) and by no other shard, for the entire lifetime of the deployment
// including crashes and recoveries. Route is a pure function of (policy,
// shards, keys) — no routing table, no rebalancing epoch — so a recovered
// shard resumes exactly the key partition it owned before the crash, and
// cross-shard histories compose without any global coordination (see
// DESIGN.md §14 and linearize.CheckComposition).
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prepuc/internal/uc"
)

// Policy selects how keys map to shards.
type Policy int

const (
	// Hash spreads keys by a splitmix64 bit-mix modulo the shard count:
	// adjacent (and therefore Zipf-hot) keys land on different shards, so
	// load balances even under heavy skew.
	Hash Policy = iota
	// Range assigns contiguous key intervals of ⌈Keys/S⌉ to each shard.
	// Under Zipfian skew the low-key range shard absorbs most of the mass —
	// the hot-shard imbalance Range exists to make measurable.
	Range
)

// String returns the -route spelling of the policy.
func (p Policy) String() string {
	if p == Range {
		return "range"
	}
	return "hash"
}

// ParsePolicy parses a -route flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	default:
		return 0, fmt.Errorf("shard: unknown routing policy %q (want hash or range)", s)
	}
}

// Router maps keys in [0, Keys) to shard indexes in [0, Shards). It is pure
// host-side state shared by producers: Route costs no virtual time (the
// simulated machine would compute it in the client library, off the
// measured server path).
type Router struct {
	policy Policy
	shards int
	per    uint64 // Range interval width ⌈keys/shards⌉
}

// NewRouter builds a router over a key space of keys entries.
func NewRouter(policy Policy, shards int, keys uint64) (*Router, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", shards)
	}
	if keys == 0 {
		return nil, fmt.Errorf("shard: key-space size must be positive")
	}
	return &Router{
		policy: policy,
		shards: shards,
		per:    (keys + uint64(shards) - 1) / uint64(shards),
	}, nil
}

// Route maps a key to its owning shard. Keys at or beyond the declared key
// space are legal (hash routes them like any other; range clamps them to
// the last shard) so callers need not range-check hostile inputs.
func (r *Router) Route(key uint64) int {
	if r.policy == Range {
		s := key / r.per
		if s >= uint64(r.shards) {
			return r.shards - 1
		}
		return int(s)
	}
	return int(mix64(key) % uint64(r.shards))
}

// RouteOp routes an operation by its key operand. Every uc set/map/queue
// operation carries its key in A0 (uc.Get/Insert/Delete constructors), so
// this is the routing hook Client.Submit-level dispatch uses.
func (r *Router) RouteOp(op uc.Op) int { return r.Route(op.A0) }

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64,
// so hash routing is a fixed pseudo-random spread with zero state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ParseSet parses a comma-separated shard subset spec ("0,2") against the
// shard count: every index must be in range and distinct. The empty spec
// parses to nil (no shards selected). The result is sorted.
func ParseSet(spec string, shards int) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("shard: bad shard index %q: %v", f, err)
		}
		if n < 0 || n >= shards {
			return nil, fmt.Errorf("shard: shard index %d out of range [0,%d)", n, shards)
		}
		if seen[n] {
			return nil, fmt.Errorf("shard: duplicate shard index %d", n)
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}
