// Package integration cross-checks the universal constructions against each
// other and against sequential models:
//
//   - differential testing: a single worker drives the identical operation
//     stream through the global-lock UC (the trivially correct reference)
//     and every registered universal construction; every response of
//     every system must match the reference exactly;
//   - commuting-workload equivalence: many workers inserting disjoint keys
//     must leave every system with the same final state regardless of the
//     linearization each one chose;
//   - crash-point sweeps: the same workload is crashed at a grid of event
//     indexes and every recovery must satisfy its system's correctness
//     condition.
package integration

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/gluc"
	"prepuc/internal/harness"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

func topo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: 4} }

// buildAll constructs every system around the same sequential object: the
// global-lock reference first, then every registered universal construction
// (SOFT is a fixed-function hashtable, not built around obj).
func buildAll(t *testing.T, obj uc.ObjectType, workers int) []*harness.Machine {
	t.Helper()
	sz := drivers.CrashScale(topo(), workers, 512, 64)
	sz.Object = obj
	ds := []*uc.Driver{gluc.NewDriver(gluc.ConfigFor(sz))}
	for _, e := range drivers.All() {
		if e.Flag != "soft" {
			ds = append(ds, e.New(sz))
		}
	}
	var out []*harness.Machine
	for _, d := range ds {
		m, err := harness.BootMachine(topo(), nvm.Config{Costs: sim.UnitCosts()}, d)
		if err != nil {
			t.Fatalf("build %s: %v", d.Name, err)
		}
		out = append(out, m)
	}
	return out
}

// runSingle drives ops through one system on one worker and returns every
// response.
func runSingle(m *harness.Machine, ops []uc.Op) []uint64 {
	res := make([]uint64, len(ops))
	m.Run(0, 1, func(th *sim.Thread, _, _ int) {
		for i, op := range ops {
			res[i] = m.Engines[0].Execute(th, 0, op)
		}
	})
	return res
}

// differential runs the same stream through every system and compares
// responses against the global-lock reference.
func differential(t *testing.T, obj uc.ObjectType, ops []uc.Op) {
	t.Helper()
	systems := buildAll(t, obj, 1)
	ref := runSingle(systems[0], ops)
	for _, m := range systems[1:] {
		got := runSingle(m, ops)
		for i := range ops {
			if got[i] != ref[i] {
				t.Fatalf("%s response %d for %s(%d,%d): got %d, reference %d",
					m.Drivers[0].Name, i, uc.OpName(ops[i].Code), ops[i].A0, ops[i].A1, got[i], ref[i])
			}
		}
	}
}

func randomSetOps(seed int64, n int, keyRange uint64) []uc.Op {
	g := workload.NewGen(workload.SetSpec(40, keyRange), seed, 0)
	ops := make([]uc.Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

func TestDifferentialHashMap(t *testing.T) {
	differential(t, seq.HashMapType(64), randomSetOps(1, 800, 100))
}

func TestDifferentialRBTree(t *testing.T) {
	differential(t, seq.RBTreeType(), randomSetOps(2, 800, 100))
}

func TestDifferentialSkipList(t *testing.T) {
	differential(t, seq.SkipListType(), randomSetOps(3, 800, 100))
}

func TestDifferentialListSet(t *testing.T) {
	differential(t, seq.ListSetType(), randomSetOps(4, 600, 60))
}

func TestDifferentialStack(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpPush, uc.OpPop, 0), 5, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.StackType(), ops)
}

func TestDifferentialPQueue(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, 0), 6, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.PQueueType(), ops)
}

// TestCommutingWorkloadConverges runs 8 workers inserting disjoint keys on
// every system; all final states must agree.
func TestCommutingWorkloadConverges(t *testing.T) {
	const workers, per = 8, 40
	systems := buildAll(t, seq.HashMapType(64), workers)
	var ref map[uint64]uint64
	for _, m := range systems {
		m.Run(0, workers, func(th *sim.Thread, _, tid int) {
			for i := uint64(0); i < per; i++ {
				k := uint64(tid)*1000 + i
				m.Engines[0].Execute(th, tid, uc.Insert(k, k*7))
			}
		})

		state := map[uint64]uint64{}
		drivers.Probe(m.Sys, func(th *sim.Thread) {
			for tid := 0; tid < workers; tid++ {
				for i := uint64(0); i < per; i++ {
					k := uint64(tid)*1000 + i
					state[k] = m.Engines[0].Execute(th, 0, uc.Get(k))
				}
			}
		})
		if ref == nil {
			ref = state
			continue
		}
		for k, v := range ref {
			if state[k] != v {
				t.Errorf("%s: key %d = %d, reference %d", m.Drivers[0].Name, k, state[k], v)
			}
		}
	}
}

// TestCrashPointSweep crashes PREP at a grid of event indexes and checks
// the correctness condition at every point — schedule-coverage for the
// recovery protocol.
func TestCrashPointSweep(t *testing.T) {
	const workers = 8
	for _, mode := range []core.Mode{core.Buffered, core.Durable} {
		for crashAt := uint64(5_000); crashAt <= 155_000; crashAt += 10_000 {
			m := bootUnit(t, prepDriver(mode, prepSizing(workers, 128)), 200, crashAt+3)
			ops, _ := insertUntilCrash(t, m, crashAt, workers, harness.FlatKey)
			recoverOnce(t, m)
			if res, foreign := checkInserts(t, m, ops, workers, 16, harness.FlatKey); !res.OK || foreign != 0 {
				t.Errorf("%s crashAt=%d: %s, %d foreign keys", mode, crashAt, res, foreign)
			}
		}
	}
}

// TestDurableRecoveryPreservesEveryStructure round-trips each sequential
// structure through a clean crash (all operations completed) and compares
// dumps.
func TestDurableRecoveryPreservesEveryStructure(t *testing.T) {
	cases := []struct {
		name string
		obj  uc.ObjectType
		ops  []uc.Op
	}{
		{"hashmap", seq.HashMapType(32), randomSetOps(11, 400, 80)},
		{"rbtree", seq.RBTreeType(), randomSetOps(12, 400, 80)},
		{"skiplist", seq.SkipListType(), randomSetOps(13, 400, 80)},
		{"listset", seq.ListSetType(), randomSetOps(14, 300, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := prepDriver(core.Durable, uc.Sizing{
				Topology: topo(), Workers: 4, Object: tc.obj,
				LogSize: 1 << 12, Epsilon: 128, HeapWords: 1 << 21,
			})
			m := bootUnit(t, d, 0, 0)
			m.Run(0, 1, func(th *sim.Thread, _, _ int) {
				for _, op := range tc.ops {
					m.Engines[0].Execute(th, 0, op)
				}
			})
			// The reference state is a read snapshot: the responses of gets
			// over the key range.
			snapshot := func() (vals [100]uint64) {
				drivers.Probe(m.Sys, func(th *sim.Thread) {
					for k := range vals {
						vals[k] = m.Engines[0].Execute(th, 0, uc.Get(uint64(k)))
					}
				})
				return vals
			}
			before := snapshot()
			recoverOnce(t, m)
			for k, got := range snapshot() {
				if got != before[k] {
					t.Errorf("key %d: recovered %d, want %d", k, got, before[k])
				}
			}
		})
	}
}
