package core

import (
	"fmt"
	"reflect"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// replayPrefill is the prefill the mirror replaces: the ops replayed into
// every replica in turn, then the checkpoint.
func replayPrefill(p *PREP, t *sim.Thread, ops []uc.Op) {
	for _, r := range p.reps {
		for _, op := range ops {
			r.ds.Execute(t, op.Code, op.A0, op.A1)
		}
	}
	for _, pr := range p.preps {
		for _, op := range ops {
			pr.ds.Execute(t, op.Code, op.A0, op.A1)
		}
	}
	if p.cfg.Mode.Persistent() {
		p.checkpoint(t)
	}
}

// prefillMix is a deterministic mix of n inserts, deletes and gets over
// keys; seed picks the mix.
func prefillMix(seed uint64, n int, keys uint64) []uc.Op {
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

// prefillTwin is what a boot and a short measured run leave: the boot
// thread's clock and event count, the counters and persisted image after
// boot, every worker's results and clock, and the counters, persisted image
// and replica 0's contents after the run.
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

func runPrefillTwin(t *testing.T, cfg Config, ops []uc.Op, replay bool) prefillTwin {
	t.Helper()
	sch := sim.New(0)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.DefaultCosts(), BGFlushOneIn: 8, Seed: 5})
	w := &world{t: t, sys: sys, seed: 3}
	var res prefillTwin
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		if w.p, err = New(th, sys, cfg); err != nil {
			return
		}
		if replay {
			replayPrefill(w.p, th, ops)
		} else {
			w.p.Prefill(th, ops)
		}
		res.bootClock = th.Clock()
	})
	sch.Run()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res.bootEvents = sch.Events()
	res.bootSnap, res.bootImage = sys.Metrics().Snapshot(), sys.PersistedFingerprint()
	res.results, res.clocks = make([][]uint64, cfg.Workers), make([]uint64, cfg.Workers)
	w.runWorkers(cfg.Workers, 0, func(th *sim.Thread, tid int) {
		for _, op := range twinOps(tid, 24, 20, cfg.Detect) {
			res.results[tid] = append(res.results[tid], w.p.Execute(th, tid, op))
		}
		res.clocks[tid] = th.Clock()
	})
	res.snap, res.image = sys.Metrics().Snapshot(), sys.PersistedFingerprint()
	w.query(func(th *sim.Thread) { res.dump = w.p.DumpState(th) })
	return res
}

// Prefill by mirror is the prefill that replays into every replica: the boot
// clock, the counters and the persisted image after boot, and a short
// measured run's results, clocks, counters, persisted image and contents,
// for every mode with and without detectable execution, at 8 workers (one
// volatile replica) and 16 (two), with background write-backs at one store
// in eight. Only the boot scheduler's event count differs: the mirrored
// stretch is one event.
func TestPrefillMirrorMatchesReplay(t *testing.T) {
	ops := prefillMix(7, 600, 1024)
	for _, mode := range []Mode{Durable, Buffered, Volatile} {
		for _, detect := range []bool{false, true} {
			for _, workers := range []int{8, 16} {
				t.Run(fmt.Sprintf("%s detect=%v workers=%d", mode, detect, workers), func(t *testing.T) {
					eps := uint64(64)
					if mode == Volatile {
						eps = 0
					}
					cfg := hashCfg(mode, workers, 1<<12, eps)
					cfg.Topology = numa.Topology{Nodes: 2, ThreadsPerNode: 8}
					cfg.HeapWords = 1 << 16
					cfg.Detect = detect
					got, want := runPrefillTwin(t, cfg, ops, false), runPrefillTwin(t, cfg, ops, true)
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
	}
}
