package seq

// Differential fuzzing of every sequential structure against the trivial
// reference models in internal/linearize (a plain map for the set family,
// plain slices for the containers). Each fuzz input decodes into an
// operation stream; structure and model must agree on every single
// response, and the structure's Dump must replay back to the model's
// state. This is a two-way contract: it catches bugs in the pmem-backed
// structures AND pins the linearizability checker's sequential specs to
// the implementations they claim to mirror.
//
// The seed corpus (deterministic pseudo-random streams of several sizes)
// runs under plain `go test`; `go test -fuzz FuzzHashMapVsModel` etc.
// explores further.

import (
	"fmt"
	"testing"

	"prepuc/internal/linearize"
	"prepuc/internal/pmem"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// fuzzSeed generates a deterministic corpus entry.
func fuzzSeed(seed, n int) []byte {
	b := make([]byte, n)
	s := uint32(seed)*2654435761 + 1
	for i := range b {
		s = s*1664525 + 1013904223
		b[i] = byte(s >> 24)
	}
	return b
}

// maxFuzzOps bounds decoded streams so adversarial inputs cannot exhaust
// the test heap.
const maxFuzzOps = 1024

// decodeSetOps maps bytes onto the set family's op mix over a small key
// range (collisions and re-inserts are the interesting cases).
func decodeSetOps(data []byte) []uc.Op {
	ops := make([]uc.Op, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(ops) < maxFuzzOps; i += 2 {
		sel, kb := data[i], data[i+1]
		key := uint64(kb % 24)
		switch sel % 8 {
		case 0, 1, 2:
			ops = append(ops, uc.Insert(key, uint64(i+1)*131+uint64(sel)))
		case 3, 4:
			ops = append(ops, uc.Delete(key))
		case 5:
			ops = append(ops, uc.Get(key))
		case 6:
			ops = append(ops, uc.Contains(key))
		case 7:
			ops = append(ops, uc.Size())
		}
	}
	return ops
}

// decodePairOps maps bytes onto a container's op mix. Values repeat
// (mod 16) on purpose: duplicate elements stress the priority queue's
// equal-key ordering and the containers' value-independent shape.
func decodePairOps(data []byte, push, pop, peek uint64) []uc.Op {
	ops := make([]uc.Op, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(ops) < maxFuzzOps; i += 2 {
		sel, vb := data[i], data[i+1]
		switch sel % 8 {
		case 0, 1, 2:
			ops = append(ops, uc.Op{Code: push, A0: uint64(vb % 16)})
		case 3, 4, 5:
			ops = append(ops, uc.Op{Code: pop})
		case 6:
			ops = append(ops, uc.Op{Code: peek})
		case 7:
			ops = append(ops, uc.Size())
		}
	}
	return ops
}

// modelStateEqual compares two full model states (map for sets, slice for
// containers).
func modelStateEqual(a, b any) bool {
	switch x := a.(type) {
	case map[uint64]uint64:
		y := b.(map[uint64]uint64)
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if got, ok := y[k]; !ok || got != v {
				return false
			}
		}
		return true
	case []uint64:
		y := b.([]uint64)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return false
}

// diffRun drives the op stream through a fresh structure and the reference
// model in lockstep, comparing every response, then checks the Dump
// round-trip: replaying the structure's dump into an empty model must land
// exactly on the model's final state.
func diffRun(t *testing.T, factory uc.Factory, model linearize.Model, ops []uc.Op) {
	t.Helper()
	run(t, 1<<20, func(th *sim.Thread, a *pmem.Allocator) {
		ds := factory(th, a)
		state := model.Empty()
		for i, op := range ops {
			var want uint64
			state, want = model.Apply(state, op.Code, op.A0, op.A1)
			if got := ds.Execute(th, op.Code, op.A0, op.A1); got != want {
				t.Fatalf("op %d %s(%d,%d): structure returned %d, model %d",
					i, uc.OpName(op.Code), op.A0, op.A1, got, want)
			}
		}
		var dumped []uc.Op
		ds.Dump(th, func(code, a0, a1 uint64) {
			dumped = append(dumped, uc.Op{Code: code, A0: a0, A1: a1})
		})
		if replayed := linearize.Replay(model, nil, dumped); !modelStateEqual(state, replayed) {
			t.Fatalf("Dump round-trip diverged after %d ops:\n dump replay %v\n model state %v",
				len(ops), replayed, state)
		}
	})
}

func fuzzSet(f *testing.F, factory uc.Factory) {
	for s := 0; s < 6; s++ {
		f.Add(fuzzSeed(s, 64+s*300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRun(t, factory, linearize.SetModel(), decodeSetOps(data))
	})
}

func fuzzPairs(f *testing.F, factory uc.Factory, model linearize.Model, push, pop, peek uint64) {
	for s := 0; s < 6; s++ {
		f.Add(fuzzSeed(100+s, 64+s*300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRun(t, factory, model, decodePairOps(data, push, pop, peek))
	})
}

func FuzzHashMapVsModel(f *testing.F)  { fuzzSet(f, HashMapType(4).New) } // tiny table: force chains
func FuzzRBTreeVsModel(f *testing.F)   { fuzzSet(f, RBTreeType().New) }
func FuzzSkipListVsModel(f *testing.F) { fuzzSet(f, SkipListType().New) }
func FuzzListSetVsModel(f *testing.F)  { fuzzSet(f, ListSetType().New) }

func FuzzQueueVsModel(f *testing.F) {
	fuzzPairs(f, QueueType().New, linearize.QueueModel(), uc.OpEnqueue, uc.OpDequeue, uc.OpPeek)
}

func FuzzStackVsModel(f *testing.F) {
	fuzzPairs(f, StackType().New, linearize.StackModel(), uc.OpPush, uc.OpPop, uc.OpTop)
}

func FuzzPQueueVsModel(f *testing.F) {
	fuzzPairs(f, PQueueType().New, linearize.PQueueModel(), uc.OpInsert, uc.OpDeleteMin, uc.OpMin)
}

// TestDifferentialLongStreams runs larger deterministic streams than the
// fuzz seed corpus through every structure/model pair — the always-on
// version of the differential contract.
func TestDifferentialLongStreams(t *testing.T) {
	for s := 0; s < 4; s++ {
		data := fuzzSeed(1000+s, 2048)
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			diffRun(t, HashMapType(4).New, linearize.SetModel(), decodeSetOps(data))
			diffRun(t, RBTreeType().New, linearize.SetModel(), decodeSetOps(data))
			diffRun(t, SkipListType().New, linearize.SetModel(), decodeSetOps(data))
			diffRun(t, ListSetType().New, linearize.SetModel(), decodeSetOps(data))
			diffRun(t, QueueType().New, linearize.QueueModel(),
				decodePairOps(data, uc.OpEnqueue, uc.OpDequeue, uc.OpPeek))
			diffRun(t, StackType().New, linearize.StackModel(),
				decodePairOps(data, uc.OpPush, uc.OpPop, uc.OpTop))
			diffRun(t, PQueueType().New, linearize.PQueueModel(),
				decodePairOps(data, uc.OpInsert, uc.OpDeleteMin, uc.OpMin))
		})
	}
}
