// Package workload generates the operation mixes of the paper's evaluation
// (§6): key-set workloads with a configurable read percentage over a
// uniform key distribution, and 100%-update "pair" workloads where every
// worker alternates an insertion-type operation with a removal-type
// operation (enqueue/dequeue for queues, push/pop for stacks).
package workload

import (
	"math/rand"

	"prepuc/internal/uc"
)

// Kind selects the workload family.
type Kind int

const (
	// Set is the map/tree workload: ReadPct% contains/get operations, the
	// rest split evenly between inserts and deletes, keys uniform in
	// [0, KeyRange).
	Set Kind = iota
	// Pairs is the 100% update workload: alternate Push and Pop codes.
	Pairs
)

// Spec describes a workload.
type Spec struct {
	Kind Kind
	// ReadPct is the percentage of read-only operations (Set only).
	ReadPct int
	// KeyRange is the key universe size (Set only). The paper uses 1M keys
	// and prefills to 50%.
	KeyRange uint64
	// PushCode/PopCode are the update pair (Pairs only).
	PushCode, PopCode uint64
	// Prefill is the number of elements present before measurement.
	Prefill uint64
}

// SetSpec is the paper's uniform set workload.
func SetSpec(readPct int, keyRange uint64) Spec {
	return Spec{Kind: Set, ReadPct: readPct, KeyRange: keyRange, Prefill: keyRange / 2}
}

// PairsSpec is the paper's enqueue/dequeue (or push/pop) workload.
func PairsSpec(pushCode, popCode uint64, prefill uint64) Spec {
	return Spec{Kind: Pairs, PushCode: pushCode, PopCode: popCode, Prefill: prefill}
}

// PrefillOps returns the operations that bring a fresh object to the
// spec's initial occupancy: Prefill distinct keys for sets, Prefill pushed
// values for pairs.
func (s Spec) PrefillOps(seed int64) []uc.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]uc.Op, 0, s.Prefill)
	switch s.Kind {
	case Set:
		// Insert Prefill distinct keys: every even key, which is exactly 50%
		// occupancy when Prefill == KeyRange/2 and keeps prefill
		// deterministic and duplicate-free.
		for i := uint64(0); i < s.Prefill; i++ {
			k := (i * 2) % s.KeyRange
			ops = append(ops, uc.Insert(k, rng.Uint64()))
		}
	case Pairs:
		for i := uint64(0); i < s.Prefill; i++ {
			ops = append(ops, uc.Op{Code: s.PushCode, A0: rng.Uint64() % (1 << 30)})
		}
	}
	return ops
}

// Gen produces one worker's operation stream.
type Gen struct {
	spec Spec
	rng  *rand.Rand
	flip bool // Pairs: next op is pop
}

// NewGen creates worker tid's deterministic generator.
func NewGen(spec Spec, seed int64, tid int) *Gen {
	return &Gen{spec: spec, rng: rand.New(rand.NewSource(seed + int64(tid)*1_000_003))}
}

// Next returns the worker's next operation.
func (g *Gen) Next() uc.Op {
	switch g.spec.Kind {
	case Pairs:
		if g.flip {
			g.flip = false
			return uc.Op{Code: g.spec.PopCode}
		}
		g.flip = true
		return uc.Op{Code: g.spec.PushCode, A0: g.rng.Uint64() % (1 << 30)}
	default:
		roll := g.rng.Intn(100)
		key := g.rng.Uint64() % g.spec.KeyRange
		switch {
		case roll < g.spec.ReadPct:
			return uc.Contains(key)
		case roll < g.spec.ReadPct+(100-g.spec.ReadPct)/2:
			return uc.Insert(key, g.rng.Uint64())
		default:
			return uc.Delete(key)
		}
	}
}
