package integration

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/harness"
	"prepuc/internal/linearize"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// sortTriples orders a flat (code, a0, a1) dump so states can be compared
// across recovery generations (hashmap chains reverse order under Dump/
// Execute cloning, so raw dump order is not canonical).
func sortTriples(d []uint64) [][3]uint64 {
	out := make([][3]uint64, 0, len(d)/3)
	for i := 0; i+2 < len(d); i += 3 {
		out = append(out, [3]uint64{d[i], d[i+1], d[i+2]})
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x[0] != y[0] {
			return x[0] < y[0]
		}
		if x[1] != y[1] {
			return x[1] < y[1]
		}
		return x[2] < y[2]
	})
	return out
}

// recoveredState is the complete recovered state of eng in canonical order:
// the sorted DumpState triples where the engine can dump itself (PREP,
// CX-PUC, ONLL), else — SOFT has no dump — the (Get code, key, value) of
// every held key among each worker's first invoked+extra.
func recoveredState(t *testing.T, m *harness.Machine, invoked []uint64, extra uint64) [][3]uint64 {
	t.Helper()
	var dump []uint64
	eng := m.Engines[0]
	if err := drivers.Probe(m.Sys, func(th *sim.Thread) {
		if d, ok := eng.(interface{ DumpState(*sim.Thread) []uint64 }); ok {
			dump = d.DumpState(th)
			return
		}
		for tid, n := range invoked {
			for i := uint64(0); i < n+extra; i++ {
				op := uc.Get(harness.Key(tid, i))
				if v := eng.Execute(th, 0, op); v != uc.NotFound {
					dump = append(dump, op.Code, op.A0, v)
				}
			}
		}
	}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	return sortTriples(dump)
}

// TestDoubleRecoveryIdempotent is the registry-driven lifecycle table: every
// recoverable construction is taken, through its driver and the shared
// phase helpers alone, from boot through an insert workload into a crash
// under the targeted adversary, recovered until an attempt completes with a
// crash armed inside the first attempt, and probed against its durable
// condition. Then it is crashed again IMMEDIATELY (no operation in between)
// and recovered a second time: the two recovered states — the complete
// state, not just the probed keys — must be identical. The second crash runs
// under DropAll, so any line the first recovery left unfenced is lost — a
// difference between the dumps means recovery's committed state was not
// fully persisted before the commit record flipped.
func TestDoubleRecoveryIdempotent(t *testing.T) {
	const workers, crashAt, nestedAt = 4, 40_000, 400
	for i, e := range drivers.Recoverable() {
		i, e := i, e
		t.Run(e.Name, func(t *testing.T) {
			d := e.New(drivers.CrashScale(topo(), workers, 256, 32))
			if d.Name != e.Name || d.Recover == nil {
				t.Fatalf("registry entry %+v built driver %q (recover=%v)", e, d.Name, d.Recover != nil)
			}

			m := bootUnit(t, d, 256, 23)
			pol, err := fault.Parse(fmt.Sprintf("targeted=%d", i), 29)
			if err != nil {
				t.Fatal(err)
			}
			m.Sys.SetFaultPolicy(pol)
			ops := insertUntilCrash(t, m, crashAt, workers, harness.FlatKey)

			// First recovery, re-entered once through the armed nested crash.
			r1, err := m.Recover(func(attempt int) uint64 {
				if attempt == 0 {
					return nestedAt
				}
				return 0
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Attempts != 2 || r1.NestedCrashes != 1 {
				t.Fatalf("attempts=%d nested=%d, want the armed crash to cut down exactly the first attempt",
					r1.Attempts, r1.NestedCrashes)
			}
			if res, foreign := checkInserts(t, m, ops, workers, 32, harness.FlatKey); !res.OK || foreign != 0 {
				t.Errorf("recovered state violates the durable condition: %s, %d foreign keys", res, foreign)
			}
			state1 := recoveredState(t, m, invoked(ops, workers), 32)
			if len(state1) == 0 {
				t.Fatal("first recovery produced an empty state; workload too short to be meaningful")
			}

			// Immediate second crash — not one operation ran — under the most
			// adversarial persistence policy, then recover again through the
			// same driver (the commit record, not the caller, must resolve
			// the source generation).
			m.Sys.SetFaultPolicy(fault.DropAll())
			recoverOnce(t, m)
			if state2 := recoveredState(t, m, invoked(ops, workers), 32); !reflect.DeepEqual(state1, state2) {
				t.Errorf("recovered states differ: first has %d ops, second %d", len(state1), len(state2))
			}
		})
	}
}

// TestMultiCrashEpochs drives K consecutive crash/recover cycles through
// PREP, giving each epoch a disjoint key range, and verifies the final state
// against every epoch at once: no later epoch touches an earlier one's keys,
// so the final state restricted to epoch e's range must satisfy epoch e's
// condition. Durable mode must preserve every epoch's completed ops;
// buffered mode must lose at most ε+β−1 completed updates per epoch (total
// K·(ε+β−1)). The durable variant runs under DropAll — strictly more
// adversarial than the default coin.
func TestMultiCrashEpochs(t *testing.T) {
	const workers = 4
	beta := topo().ThreadsPerNode
	for _, tc := range []struct {
		name   string
		mode   core.Mode
		k      int
		policy fault.Policy
	}{
		{"durable-k2-dropall", core.Durable, 2, fault.DropAll()},
		{"durable-k3-dropall", core.Durable, 3, fault.DropAll()},
		{"buffered-k2", core.Buffered, 2, nil},
		{"buffered-k3", core.Buffered, 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One driver across all K crashes: every recovery starts from the
			// BOOT configuration, the commit record resolves the actual
			// source generation.
			d := prepDriver(tc.mode, prepSizing(workers, 256))
			m := bootUnit(t, d, 256, 37)
			if tc.policy != nil {
				m.Sys.SetFaultPolicy(tc.policy)
			}
			epochKey := func(e int) harness.KeyFunc {
				return func(_, tid int, i uint64) uint64 { return uint64(e)<<48 | harness.Key(tid, i) }
			}
			epochs := make([][]linearize.Op, tc.k)
			for e := range epochs {
				epochs[e] = insertUntilCrash(t, m, uint64(30_000+e*7_000), workers, epochKey(e))
				recoverOnce(t, m)
			}

			// Check every epoch's keys against the FINAL recovered state.
			total, bound := 0, int(d.Epsilon)+beta-1
			for e, ops := range epochs {
				res, _ := checkInserts(t, m, ops, workers, 16, epochKey(e))
				if !res.OK {
					t.Errorf("epoch %d: multi-crash %s violation: %s", e, tc.mode, res)
				}
				if tc.mode == core.Buffered && res.Lost > bound {
					t.Errorf("epoch %d: lost %d, per-epoch bound ε+β−1 = %d", e, res.Lost, bound)
				}
				total += res.Lost
			}
			if limit := tc.k * bound; total > limit {
				t.Errorf("total loss %d exceeds K·(ε+β−1) = %d", total, limit)
			}
		})
	}
}
