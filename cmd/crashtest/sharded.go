package main

// The -instances N > 1 cycle: one machine hosts N co-resident PREP
// instances (Config.Instance region naming on a single nvm.System), each
// with its own log, replicas, generation lineage and descriptor table.
// Every cycle crashes the whole machine mid-workload, then recovers the
// instances in two waves — a rotating proper subset first, the rest on a
// later scheduler — so recovery-order independence is exercised across
// iterations. Each instance is verified against its own completion record
// under the active durable condition, and a cross-instance isolation scan
// (recovered Size minus the instance's own surviving keys) proves no
// instance's recovery resurrected another's writes: instance keys are
// tagged with the instance index, so any bleed is a nonzero foreign count.
//
// Sharded cycles run the constructions the registry marks Instanced (the
// two persistent PREP modes; -system all narrows to them): the comparison
// systems have no multi-instance region naming. The JSON document is additive to schema
// prepuc-crash/v2 — a top-level "instances" field and a per-cycle
// "sharded" block, both omitted in single-instance runs so existing
// goldens and consumers are unchanged.

import (
	"flag"
	"fmt"

	"prepuc/internal/drivers"
	"prepuc/internal/history"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

var instancesFlg = flag.Int("instances", 1, "co-resident PREP instances per machine; >1 runs sharded crash cycles (PREP systems only, -check prefix)")

// shardedBlock is one cycle's multi-instance record (additive to schema
// v2; absent when -instances is 1).
type shardedBlock struct {
	Instances int `json:"instances"`
	// RecoveredFirst is the rotating proper subset of instances recovered
	// in the first wave; the rest recovered on a later scheduler.
	RecoveredFirst []int `json:"recovered_first"`
	// ForeignKeys counts keys found in some instance's recovered state
	// that were inserted into a different instance (must be 0).
	ForeignKeys uint64          `json:"foreign_keys"`
	PerInstance []instanceCycle `json:"per_instance"`
}

// instanceCycle is one instance's verdict within a sharded cycle.
type instanceCycle struct {
	Instance  int    `json:"instance"`
	Completed uint64 `json:"completed_ops"`
	Recovered uint64 `json:"recovered_ops"`
	Lost      uint64 `json:"lost_completed"`
	Replayed  uint64 `json:"replayed"`
	OK        bool   `json:"ok"`
}

// instKey tags a per-worker sequence key with its owning instance so
// cross-instance leakage is observable after recovery. history.Key packs
// (tid, i) into the low 48 bits; the tag sits above it.
func instKey(k, tid int, i uint64) uint64 {
	return uint64(k+1)<<56 | history.Key(tid, i)
}

// shardedSizing is instance k's machine: the flat sizing with a
// per-instance worker slice, the region namespace, and a smaller heap (N
// instances share the machine).
func shardedSizing(k, wp int) uc.Sizing {
	sz := sizing()
	sz.Workers, sz.HeapWords, sz.Instance = wp, 1<<19, fmt.Sprintf("s%d", k)
	return sz
}

// recoverFirst picks the cycle's first-wave recovery subset: a proper
// subset whose start and size both rotate with the iteration, so an
// -iterations run sweeps recovery orders.
func recoverFirst(iter, n int) []int {
	size := 1 + iter%(n-1)
	first := make([]int, 0, size)
	for j := 0; j < size; j++ {
		first = append(first, (iter+j)%n)
	}
	return first
}

// runShardedCycle executes one boot(×N) → workload-crash → recover(first
// wave, then rest) → probe cycle and checks every instance plus the
// cross-instance isolation scan. A boot or recovery that answers with an
// error fails the cycle and is returned for the progress stream.
func runShardedCycle(tg target, iter int, crashAt uint64) (crashCycle, string, error) {
	S := *instancesFlg
	wp := *workers / S
	base := *seed + int64(iter)*101 + tg.offset
	tp := topo()
	blk := &shardedBlock{Instances: S, RecoveredFirst: recoverFirst(iter, S)}
	cyc := crashCycle{Iteration: iter, CrashAt: crashAt, Sharded: blk}
	finish := func(sys *nvm.System, err error) (crashCycle, string, error) {
		cyc.readFault(sys)
		return cyc, fmt.Sprintf("instances=%d first=%v completed=%d recovered=%d lost=%d foreign=%d replayed=%d recovery=%.3fms(virtual)",
			S, blk.RecoveredFirst, cyc.Completed, cyc.Recovered, cyc.Lost, blk.ForeignKeys,
			cyc.Replayed, float64(cyc.RecoveryVirtualNS)/1e6), err
	}

	ds := make([]*uc.Driver, S)
	for k := range ds {
		ds[k] = tg.New(shardedSizing(k, wp))
	}
	sys, engines, err := bootCycle(base, iter, ds...)
	if err != nil {
		return finish(sys, err)
	}

	// Workload: wp insert workers per instance, all interleaved on one
	// crash-armed scheduler with each instance's persistence thread live.
	sch := sim.New(base + 1)
	sch.CrashAtEvent(crashAt)
	sys.SetScheduler(sch)
	for _, d := range ds {
		if d.SpawnAux != nil {
			d.SpawnAux()
		}
	}
	completed := make([][]uint64, S)
	for k := 0; k < S; k++ {
		completed[k] = make([]uint64, wp)
		for tid := 0; tid < wp; tid++ {
			k, tid := k, tid
			sch.Spawn("worker", tp.NodeOf(k*wp+tid), 0, func(t *sim.Thread) {
				defer func() {
					if r := recover(); r != nil && !sim.Crashed(r) {
						panic(r)
					}
				}()
				for i := uint64(0); ; i++ {
					engines[k].Execute(t, tid, uc.Insert(instKey(k, tid, i), i))
					completed[k][tid] = i + 1
				}
			})
		}
	}
	sch.Run()

	// Two recovery waves over one crashed image: the rotating first-wave
	// subset, then the rest on a later scheduler. Each instance's recovery
	// reads only its own prefixed regions, so wave order must not matter;
	// the per-instance checks below catch any bleed.
	inFirst := make([]bool, S)
	for _, k := range blk.RecoveredFirst {
		inFirst[k] = true
	}
	cyc.RecoveryAttempts = 1
	rec := make([]uc.UC, S)
	replayed := make([]uint64, S)
	recSch := sim.New(base + 2)
	recovered := sys.Recover(recSch)
	recoverWave := func(waveSch *sim.Scheduler, wave bool) error {
		var err error
		waveSch.Spawn("recover", 0, 0, func(t *sim.Thread) {
			start := t.Clock()
			for k := 0; k < S && err == nil; k++ {
				if inFirst[k] != wave {
					continue
				}
				var info uc.RecoverInfo
				if rec[k], info, err = ds[k].Recover(t, recovered); err != nil {
					err = fmt.Errorf("recover instance %d: %w", k, err)
				}
				replayed[k] = info.Replayed
			}
			cyc.RecoveryVirtualNS += t.Clock() - start
		})
		waveSch.Run()
		return err
	}
	if err := recoverWave(recSch, true); err != nil {
		return finish(recovered, err)
	}
	lateSch := sim.New(base + 3)
	recovered.SetScheduler(lateSch)
	if err := recoverWave(lateSch, false); err != nil {
		return finish(recovered, err)
	}

	// Probe: each instance's own key prefix (the per-worker condition),
	// plus its recovered Size for the isolation scan — any key beyond the
	// instance's own surviving set is a foreign resurrection.
	keys := make([][][]bool, S)
	sizes := make([]uint64, S)
	own := make([]uint64, S)
	drivers.Probe(recovered, base+1000, func(t *sim.Thread) {
		for k := 0; k < S; k++ {
			keys[k] = make([][]bool, wp)
			for tid := 0; tid < wp; tid++ {
				n := completed[k][tid] + 32
				keys[k][tid] = make([]bool, n)
				for i := uint64(0); i < n; i++ {
					present := rec[k].Execute(t, 0, uc.Get(instKey(k, tid, i))) != uc.NotFound
					keys[k][tid][i] = present
					if present {
						own[k]++
					}
				}
			}
			sizes[k] = rec[k].Execute(t, 0, uc.Size())
		}
	})
	cyc.OK = true
	for k := 0; k < S; k++ {
		r := history.Check(keys[k], completed[k])
		ok := reportOK(ds[k], r)
		foreign := sizes[k] - own[k]
		blk.ForeignKeys += foreign
		if foreign != 0 {
			ok = false
		}
		cyc.OK = cyc.OK && ok
		blk.PerInstance = append(blk.PerInstance, instanceCycle{
			Instance: k, Completed: r.Completed, Recovered: r.Recovered,
			Lost: r.LostCompleted, Replayed: replayed[k], OK: ok,
		})
		cyc.Completed += r.Completed
		cyc.Recovered += r.Recovered
		cyc.Lost += r.LostCompleted
		cyc.Replayed += replayed[k]
	}
	return finish(recovered, nil)
}
