package cxpuc

import (
	"fmt"
	"reflect"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// replayPrefill is the prefill the mirror replaces: the ops replayed into
// every replica in turn, then replica 0 and the published word persisted.
func replayPrefill(cx *CX, t *sim.Thread, ops []uc.Op) {
	for _, r := range cx.reps {
		for _, op := range ops {
			r.ds.Execute(t, op.Code, op.A0, op.A1)
		}
	}
	r0 := cx.reps[0]
	r0.heap.FlushRegion(t, 0, r0.alloc.HeapTop(t))
	cx.flush.FlushLineSync(t, cx.meta, metaLatest)
}

// mixedOps is a deterministic mix of n inserts, deletes and gets over keys;
// seed picks the mix.
func mixedOps(seed uint64, n int, keys uint64) []uc.Op {
	x := seed | 1
	ops := make([]uc.Op, n)
	for i := range ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % keys
		switch x % 8 {
		case 0:
			ops[i] = uc.Delete(k)
		case 1:
			ops[i] = uc.Get(k)
		default:
			ops[i] = uc.Insert(k, x>>32)
		}
	}
	return ops
}

// prefillTwin is what a boot and a short measured run leave (see core's
// twin of the same name).
type prefillTwin struct {
	bootClock, bootEvents uint64
	bootSnap              metrics.Snapshot
	bootImage             uint64
	results               [][]uint64
	clocks                []uint64
	snap                  metrics.Snapshot
	image                 uint64
	dump                  []uint64
}

func runPrefillTwin(t *testing.T, workers int, ops []uc.Op, replay bool) prefillTwin {
	t.Helper()
	sch := sim.New(0)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 8, Seed: 5})
	w := &world{sys: sys}
	var res prefillTwin
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		if w.cx, err = New(th, sys, testCfg(workers)); err != nil {
			return
		}
		if replay {
			replayPrefill(w.cx, th, ops)
		} else {
			w.cx.Prefill(th, ops)
		}
		res.bootClock = th.Clock()
	})
	sch.Run()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res.bootEvents = sch.Events()
	res.bootSnap, res.bootImage = sys.Metrics().Snapshot(), sys.PersistedFingerprint()
	res.results, res.clocks = make([][]uint64, workers), make([]uint64, workers)
	w.run(workers, 0, 0, func(th *sim.Thread, tid int) {
		for _, op := range mixedOps(uint64(tid)+11, 16, 512) {
			res.results[tid] = append(res.results[tid], w.cx.Execute(th, tid, op))
		}
		res.clocks[tid] = th.Clock()
	})
	res.snap, res.image = sys.Metrics().Snapshot(), sys.PersistedFingerprint()
	w.run(1, 0, 0, func(th *sim.Thread, _ int) { res.dump = w.cx.DumpState(th) })
	return res
}

// Prefill by mirror is the prefill that replays into every CX-PUC replica:
// the boot clock, the counters and the persisted image after boot, and a
// short measured run's results, clocks, counters, persisted image and
// contents, with background write-backs at one store in eight. Only the boot
// scheduler's event count differs: the mirrored stretch is one event.
func TestPrefillMirrorMatchesReplay(t *testing.T) {
	ops := mixedOps(7, 600, 1024)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, want := runPrefillTwin(t, workers, ops, false), runPrefillTwin(t, workers, ops, true)
			if got.bootEvents >= want.bootEvents {
				t.Errorf("boot took %d events, the replay %d: the mirror did not run", got.bootEvents, want.bootEvents)
			}
			got.bootEvents = want.bootEvents
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mirrored %+v,\n replayed %+v", got, want)
			}
		})
	}
}
