package svc_test

// Linearizability of histories recorded through the asynchronous API: every
// operation's invoke/response window brackets Submit..Wait, so the checker
// sees exactly what an async client saw — including batching, ring FIFO
// delays and (in the crash test) operations cut down in flight.

import (
	"math/rand"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/linearize"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

const linKeys = 16

// linOp draws one mixed set operation on a small key range (small enough
// that the per-key linearization search stays cheap).
func linOp(rng *rand.Rand, pid, i int) uc.Op {
	k := uint64(rng.Intn(linKeys))
	switch rng.Intn(4) {
	case 0:
		return uc.Insert(k, uint64(pid)<<16|uint64(i))
	case 1:
		return uc.Delete(k)
	default:
		return uc.Get(k)
	}
}

// probeSet reads the engine's full set state on a fresh scheduler.
func probeSet(t *testing.T, sys *nvm.System, engine uc.UC) map[uint64]uint64 {
	t.Helper()
	recovered := map[uint64]uint64{}
	if err := drivers.Probe(sys, func(th *sim.Thread) {
		for k := uint64(0); k < linKeys; k++ {
			if v := engine.Execute(th, 0, uc.Get(k)); v != uc.NotFound {
				recovered[k] = v
			}
		}
	}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	return recovered
}

// TestAsyncHistoryLinearizes records a mixed workload submitted through the
// batched async API and requires a legal linearization ending in the probed
// final state.
func TestAsyncHistoryLinearizes(t *testing.T) {
	const producers, per = 6, 40
	w := newWorld(t, core.Durable, 64, 2, true, 21)
	rec := linearize.NewRecorder(producers)
	w.run(2100, producers, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		rng := rand.New(rand.NewSource(int64(pid)*7 + 1))
		for i := 0; i < per; i++ {
			op := linOp(rng, pid, i)
			rec.Exec(th, pid, op, func() uint64 {
				return c.Submit(th, op).Wait(th)
			})
		}
	})
	recovered := probeSet(t, w.sys, w.p)
	res := linearize.CheckEpoch(linearize.SetModel(), nil, rec.Ops(), recovered, linearize.Options{})
	if !res.OK {
		t.Fatalf("async history not linearizable: %s", res)
	}
	if res.Ops != producers*per {
		t.Fatalf("checked %d ops, want %d", res.Ops, producers*per)
	}
}

// TestAsyncHistoryLinearizesAcrossCrash crashes the machine under async
// load, recovers PREP-Durable, and requires the recorded history (with its
// in-flight suffix) plus the recovered state to admit a strict durable
// linearization: no acknowledged operation may be lost.
func TestAsyncHistoryLinearizesAcrossCrash(t *testing.T) {
	const shards, producers = 2, 4
	sz := uc.Sizing{
		Topology: topo(), Workers: shards, Object: seq.HashMapType(64),
		LogSize: 1024, Epsilon: 64, HeapWords: 1 << 20,
	}
	d := core.NewDriver(core.ConfigFor(core.Durable, sz))
	var s *svc.Service
	sys, _, err := drivers.Boot(d, nvm.Config{
		Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: 38,
	}, func(th *sim.Thread, sys *nvm.System, p uc.UC) (err error) {
		s, err = svc.New(th, sys, svc.Config{
			Engine: p, Topology: topo(), Shards: shards,
			RingSize: 256, MaxBatch: 32, Batched: true,
		})
		return err
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}

	// Load phase, cut down mid-flight: producers and consumers run until
	// the machine freezes (the scheduler's Spawn wrapper absorbs the Crash
	// unwinds; the recorder leaves cut operations in flight).
	sch := sim.New(3100)
	sch.CrashAtEvent(40_000)
	sys.SetScheduler(sch)
	d.SpawnAux()
	for shard := 0; shard < shards; shard++ {
		shard := shard
		sch.Spawn("consumer", topo().NodeOf(shard), 0, func(th *sim.Thread) {
			s.Serve(th, shard)
		})
	}
	rec := linearize.NewRecorder(producers)
	for pid := 0; pid < producers; pid++ {
		pid := pid
		sch.Spawn("producer", topo().NodeOf(pid%8), 0, func(th *sim.Thread) {
			c := s.Client(pid % shards)
			rng := rand.New(rand.NewSource(int64(pid)*11 + 3))
			for i := 0; ; i++ {
				op := linOp(rng, pid, i)
				rec.Exec(th, pid, op, func() uint64 {
					return c.Submit(th, op).Wait(th)
				})
			}
		})
	}
	sch.Run()
	if !sch.Frozen() {
		t.Fatal("machine never crashed")
	}
	completed, inFlight := 0, 0
	for _, op := range rec.Ops() {
		if op.Class == linearize.Completed {
			completed++
		} else {
			inFlight++
		}
	}
	if completed == 0 {
		t.Fatal("no operations completed before the crash")
	}

	r, err := drivers.Recover(d, sys, nil, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}

	recovered := probeSet(t, r.Sys, r.Eng)
	res := linearize.CheckEpoch(linearize.SetModel(), nil, rec.Ops(), recovered, linearize.Options{})
	if !res.OK {
		t.Fatalf("crash epoch not durably linearizable: %s", res)
	}
	t.Logf("crash epoch: %s (completed=%d, in-flight=%d)", res, completed, inFlight)
}
