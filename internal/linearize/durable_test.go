package linearize

import (
	"fmt"
	"testing"

	"prepuc/internal/uc"
)

// TestOneOpShortcutMatchesSearch: a one-operation partition decided without
// a search gets the search's durable verdict — on every one-operation
// partition the set and queue models form over a small domain of initial
// states, operations, results, classes and recovered states, and on every
// one-operation partition of the generated set histories, as recorded, with
// each result perturbed and with the operation left in flight.
func TestOneOpShortcutMatchesSearch(t *testing.T) {
	checked, admitted := 0, 0
	check := func(name string, p *Problem) {
		t.Helper()
		got, want := durableOne(p), newSearch(p, 0).lossDurable() == 0
		if got != want {
			t.Fatalf("%s: the shortcut's verdict is %v, the search's %v", name, got, want)
		}
		checked++
		if got {
			admitted++
		}
	}
	oneOp := func(m Model, init, rec any, hasRec bool, op Op) {
		ps, err := m.Partition([]Op{op}, init, rec, hasRec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ps {
			check(fmt.Sprintf("%s %+v from %v to %v (%v)", m.Name(), op, init, rec, hasRec), &ps[i])
		}
	}
	classes := []Class{Completed, InFlight, InFlightCommitted, InFlightNever}
	results := []uint64{0, 1, 5, 7, uc.NotFound}
	withClass := func(o uc.Op, res uint64, c Class) Op {
		op := Op{Code: o.Code, A0: o.A0, A1: o.A1, Result: res, Invoke: 10, Return: 20, Class: c}
		if c != Completed {
			op.Return = ^uint64(0)
		}
		return op
	}

	for _, init := range []map[uint64]uint64{{}, {3: 5}} {
		for _, rec := range []map[uint64]uint64{nil, {}, {3: 5}, {3: 7}} {
			for _, o := range []uc.Op{uc.Get(3), uc.Contains(3), uc.Insert(3, 7), uc.Insert(3, 5), uc.Delete(3)} {
				for _, res := range results {
					for _, c := range classes {
						oneOp(SetModel(), init, rec, rec != nil, withClass(o, res, c))
					}
				}
			}
		}
	}
	queue := []uc.Op{{Code: uc.OpEnqueue, A0: 7}, {Code: uc.OpDequeue}, {Code: uc.OpPeek}}
	for _, init := range [][]uint64{{}, {5}} {
		for _, rec := range [][]uint64{nil, {}, {5}, {7}, {5, 7}} {
			for _, o := range queue {
				for _, res := range results {
					for _, c := range classes {
						oneOp(QueueModel(), init, rec, rec != nil, withClass(o, res, c))
					}
				}
			}
		}
	}

	// The generated histories, keyed widely enough that most keys carry one
	// operation, against the final state of their sequential execution (the
	// order they are generated in) and unconstrained.
	for seed := int64(1); seed <= 10; seed++ {
		ops := genConcurrentSetHistory(seed, 4, 400, 4096)
		var final any = map[uint64]uint64{}
		for _, op := range ops {
			final, _ = SetModel().Apply(final, op.Code, op.A0, op.A1)
		}
		for _, rec := range []any{final, nil} {
			ps, err := SetModel().Partition(ops, map[uint64]uint64{}, rec, rec != nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if len(p.Ops) != 1 {
					continue
				}
				op := p.Ops[0]
				for _, variant := range []Op{op, {Code: op.Code, A0: op.A0, A1: op.A1, Result: op.Result + 1,
					Invoke: op.Invoke, Return: op.Return}} {
					for _, c := range classes {
						p.Ops = []Op{variant}
						p.Ops[0].Class = c
						check(fmt.Sprintf("seed %d %+v", seed, p.Ops[0]), &p)
					}
				}
			}
		}
	}
	t.Logf("%d one-operation partitions, %d admitted", checked, admitted)
	if admitted == 0 || admitted == checked {
		t.Fatal("the domain decides every partition the same way")
	}
}
