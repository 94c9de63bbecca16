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
	"prepuc/internal/history"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

func topo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: 4} }

type built struct {
	nsys *nvm.System
	s    uc.UC
	d    *uc.Driver
}

// spawnAux / stopAux bracket a workload phase with the construction's
// auxiliary threads, when it has any.
func (b built) spawnAux() {
	if b.d.SpawnAux != nil {
		b.d.SpawnAux()
	}
}

func (b built) stopAux(th *sim.Thread) {
	if b.d.StopAux != nil {
		b.d.StopAux(th)
	}
}

// buildAll constructs every system around the same sequential object: the
// global-lock reference first, then every registered universal construction
// (SOFT is a fixed-function hashtable, not built around obj).
func buildAll(t *testing.T, obj uc.ObjectType, seed int64, workers int) []built {
	t.Helper()
	sz := drivers.CrashScale(topo(), workers, 512, 64)
	sz.Object = obj
	ds := []*uc.Driver{{Name: "GL", Boot: func(th *sim.Thread, ns *nvm.System) (uc.UC, error) {
		return gluc.New(th, ns, gluc.Config{Factory: obj.New, HeapWords: sz.HeapWords}), nil
	}}}
	for _, e := range drivers.All() {
		if e.Flag != "soft" {
			ds = append(ds, e.New(sz))
		}
	}
	var out []built
	for _, d := range ds {
		ns, s, err := drivers.Boot(d, seed, nvm.Config{Costs: sim.UnitCosts()}, nil)
		if err != nil {
			t.Fatalf("build %s: %v", d.Name, err)
		}
		out = append(out, built{ns, s, d})
	}
	return out
}

// runSingle drives ops through one system on one worker and returns every
// response.
func runSingle(b built, seed int64, ops []uc.Op) []uint64 {
	sch := sim.New(seed)
	b.nsys.SetScheduler(sch)
	b.spawnAux()
	res := make([]uint64, len(ops))
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		defer b.stopAux(th)
		for i, op := range ops {
			res[i] = b.s.Execute(th, 0, op)
		}
	})
	sch.Run()
	return res
}

// differential runs the same stream through every system and compares
// responses against the global-lock reference.
func differential(t *testing.T, obj uc.ObjectType, ops []uc.Op, seed int64) {
	t.Helper()
	systems := buildAll(t, obj, seed, 1)
	ref := runSingle(systems[0], seed+100, ops)
	for _, b := range systems[1:] {
		got := runSingle(b, seed+100, ops)
		for i := range ops {
			if got[i] != ref[i] {
				t.Fatalf("%s response %d for %s(%d,%d): got %d, reference %d",
					b.d.Name, i, uc.OpName(ops[i].Code), ops[i].A0, ops[i].A1, got[i], ref[i])
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
	differential(t, seq.HashMapType(64), randomSetOps(1, 800, 100), 10)
}

func TestDifferentialRBTree(t *testing.T) {
	differential(t, seq.RBTreeType(), randomSetOps(2, 800, 100), 20)
}

func TestDifferentialSkipList(t *testing.T) {
	differential(t, seq.SkipListType(), randomSetOps(3, 800, 100), 30)
}

func TestDifferentialListSet(t *testing.T) {
	differential(t, seq.ListSetType(), randomSetOps(4, 600, 60), 40)
}

func TestDifferentialStack(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpPush, uc.OpPop, 0), 5, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.StackType(), ops, 50)
}

func TestDifferentialPQueue(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, 0), 6, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.PQueueType(), ops, 60)
}

// TestCommutingWorkloadConverges runs 8 workers inserting disjoint keys on
// every system; all final states must agree.
func TestCommutingWorkloadConverges(t *testing.T) {
	const workers, per = 8, 40
	systems := buildAll(t, seq.HashMapType(64), 7, workers)
	var ref map[uint64]uint64
	for _, b := range systems {
		sch := sim.New(70)
		b.nsys.SetScheduler(sch)
		b.spawnAux()
		remaining := workers
		for tid := 0; tid < workers; tid++ {
			tid := tid
			sch.Spawn("w", topo().NodeOf(tid), 0, func(th *sim.Thread) {
				defer func() {
					remaining--
					if remaining == 0 {
						b.stopAux(th)
					}
				}()
				for i := uint64(0); i < per; i++ {
					k := uint64(tid)*1000 + i
					b.s.Execute(th, tid, uc.Insert(k, k*7))
				}
			})
		}
		sch.Run()

		state := map[uint64]uint64{}
		sch2 := sim.New(71)
		b.nsys.SetScheduler(sch2)
		sch2.Spawn("read", 0, 0, func(th *sim.Thread) {
			for tid := 0; tid < workers; tid++ {
				for i := uint64(0); i < per; i++ {
					k := uint64(tid)*1000 + i
					state[k] = b.s.Execute(th, 0, uc.Get(k))
				}
			}
		})
		sch2.Run()
		if ref == nil {
			ref = state
			continue
		}
		for k, v := range ref {
			if state[k] != v {
				t.Errorf("%s: key %d = %d, reference %d", b.d.Name, k, state[k], v)
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
			d := prepDriver(mode, prepSizing(workers, 128))
			ns, eng := bootUnit(t, d, int64(crashAt), 200, crashAt+3)
			completed, _ := insertUntilCrash(t, d, eng, ns, int64(crashAt)+1, crashAt, workers, history.Key)
			r := recoverOnce(t, d, ns, int64(crashAt)+2)
			keys := probePrefix(r.Sys, r.Eng, int64(crashAt)+3, completed, 16, history.Key)
			if rep := history.Check(keys, completed); !durableOK(d, rep) {
				t.Errorf("%s crashAt=%d: %s", mode, crashAt, rep)
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
			ns, p := bootUnit(t, d, 99, 0, 0)
			sch := sim.New(100)
			ns.SetScheduler(sch)
			d.SpawnAux()
			sch.Spawn("w", 0, 0, func(th *sim.Thread) {
				defer d.StopAux(th)
				for _, op := range tc.ops {
					p.Execute(th, 0, op)
				}
			})
			sch.Run()
			// The reference state is a read snapshot: the responses of gets
			// over the key range.
			snapshot := func(ns *nvm.System, eng uc.UC, seed int64) (vals [100]uint64) {
				drivers.Probe(ns, seed, func(th *sim.Thread) {
					for k := range vals {
						vals[k] = eng.Execute(th, 0, uc.Get(uint64(k)))
					}
				})
				return vals
			}
			before := snapshot(ns, p, 101)
			r := recoverOnce(t, d, ns, 102)
			for k, got := range snapshot(r.Sys, r.Eng, 103) {
				if got != before[k] {
					t.Errorf("key %d: recovered %d, want %d", k, got, before[k])
				}
			}
		})
	}
}
