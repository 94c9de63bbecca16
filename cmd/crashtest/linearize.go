package main

// The -check linearize cycle: instead of the per-worker key-prefix
// condition, every operation of a mixed set workload is recorded with its
// invoke/response timestamps, and after each crash/recover epoch the
// history plus the probed recovered state must admit a durable
// linearization (buffered durable with the ε+β−1 completed-loss allowance
// for PREP-Buffered). -epochs chains crash/recover cycles on one machine:
// each epoch's probed state is the next epoch's initial state, so recovery
// bugs that only corrupt the second crash are still caught.

import (
	"fmt"

	"prepuc/internal/drivers"
	"prepuc/internal/linearize"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// linKeyRange keeps the probe (a Get per key after every epoch) cheap while
// leaving enough collision pressure to exercise overwrite paths.
const linKeyRange = 128

// linSpec is the recorded workload: the paper's mixed set mix at 30% reads.
func linSpec() workload.Spec {
	s := workload.SetSpec(30, linKeyRange)
	s.Prefill = 0
	return s
}

// runLinearizeCycle executes one boot → (workload-crash → recover → probe →
// check) × epochs cycle. The fault adversary, nested-crash arming and
// recovery retry loop match the prefix cycle exactly; only the workload
// (mixed ops instead of disjoint inserts) and the verdict differ.
func runLinearizeCycle(tg target, iter int, crashAt uint64) (crashCycle, string, error) {
	d := tg.New(sizing())
	base := *seed + int64(iter)*101 + tg.offset
	tp := topo()
	spec := linSpec()
	model := linearize.SetModel()
	opt := linearize.Options{}
	if d.Buffered {
		opt = linearize.Options{Buffered: true, Allowance: int(*epsilon) + tp.ThreadsPerNode - 1}
	}

	cb := &checkBlock{Mode: "linearize", Epochs: *epochs, OK: true, FailedEpoch: -1}
	cyc := crashCycle{Iteration: iter, CrashAt: crashAt, Check: cb}
	// fail records the error boot or recovery answered with as the verdict.
	var failure error
	fail := func(epoch int, err error) {
		failure = err
		cb.OK, cb.FailedEpoch, cb.Reason = false, epoch, err.Error()
	}
	cur, engs, err := bootCycle(base, iter, d)
	if err != nil {
		fail(0, err)
	}
	eng := engs[0]
	init := model.Empty()
	for epoch := 0; epoch < *epochs && failure == nil; epoch++ {
		sch := sim.New(base + 1 + int64(epoch)*23)
		sch.CrashAtEvent(crashAt + uint64(epoch)*7_777)
		cur.SetScheduler(sch)
		if d.SpawnAux != nil {
			d.SpawnAux()
		}
		rec := linearize.NewRecorder(*workers)
		for tid := 0; tid < *workers; tid++ {
			tid := tid
			sch.Spawn("worker", tp.NodeOf(tid), 0, func(t *sim.Thread) {
				defer func() {
					if r := recover(); r != nil && !sim.Crashed(r) {
						panic(r)
					}
				}()
				gen := workload.NewGen(spec, base+int64(epoch)*53+17, tid)
				for {
					op := gen.Next()
					rec.Exec(t, tid, op, func() uint64 { return eng.Execute(t, tid, op) })
				}
			})
		}
		sch.Run()

		r, err := drivers.Recover(d, cur, base+2+int64(epoch)*23, nestedArm(iter), nil)
		cyc.addRecovery(r)
		cur, eng = r.Sys, r.Eng
		if err != nil {
			fail(epoch, fmt.Errorf("recover: %w", err))
			break
		}

		recovered := map[uint64]uint64{}
		drivers.Probe(cur, base+900+int64(epoch)*23, func(t *sim.Thread) {
			for k := uint64(0); k < linKeyRange; k++ {
				if v := eng.Execute(t, 0, uc.Get(k)); v != uc.NotFound {
					recovered[k] = v
				}
			}
		})

		res := linearize.CheckEpoch(model, init, rec.Ops(), recovered, opt)
		cb.Ops += res.Ops
		cb.Partitions += res.Partitions
		cb.Lost += res.Lost
		if !res.OK {
			cb.OK = false
			cb.FailedEpoch = epoch
			cb.FailedPartition = res.FailedPartition
			cb.Reason = res.Reason
			break
		}
		init = recovered
	}
	cyc.readFault(cur)
	cyc.OK, cyc.Completed, cyc.Lost = cb.OK, uint64(cb.Ops), uint64(cb.Lost)
	return cyc, fmt.Sprintf("linearize epochs=%d ops=%d partitions=%d lost=%d %s",
		cb.Epochs, cb.Ops, cb.Partitions, cb.Lost, cyc.recoveryLine()), failure
}
