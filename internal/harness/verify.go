package harness

import (
	"fmt"

	"prepuc/internal/linearize"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// ModelFor returns the linearize specification matching a workload spec:
// the partitioned set model for Set workloads, and the queue / stack /
// priority-queue model selected by the Pairs update codes.
func ModelFor(spec workload.Spec) (linearize.Model, error) {
	switch spec.Kind {
	case workload.Set:
		return linearize.SetModel(), nil
	case workload.Pairs:
		switch {
		case spec.PushCode == uc.OpPush:
			return linearize.StackModel(), nil
		case spec.PushCode == uc.OpEnqueue && spec.PopCode == uc.OpDequeue:
			return linearize.QueueModel(), nil
		case spec.PushCode == uc.OpEnqueue && spec.PopCode == uc.OpDeleteMin:
			return linearize.PQueueModel(), nil
		}
	}
	return nil, fmt.Errorf("harness: no sequential model for workload %+v", spec)
}

// VerifyPoint rebuilds one (algo, threads) cell exactly like a measured
// point — boot, prefill, background threads — then drives opsPerWorker
// operations per worker through a linearize.Recorder and checks the
// recorded history (plus the probed final state) for linearizability
// against the workload's sequential model. It is how the evaluation
// workloads themselves get correctness coverage: the same ExecuteConcurrent
// call path the throughput harness measures, verified instead of timed.
//
// The workload's KeyRange should be small (≤ a few hundred) so the final
// set state can be probed key by key.
func VerifyPoint(fig Figure, sc Scale, algo AlgoSpec, threads int, seed int64, opsPerWorker int) (linearize.Result, error) {
	model, err := ModelFor(fig.Workload)
	if err != nil {
		return linearize.Result{}, err
	}
	prefill := fig.Workload.PrefillOps(seed)
	init := linearize.Replay(model, nil, prefill)

	m, err := cellMachine(sc, algo, threads, seed, prefill)
	if err != nil {
		return linearize.Result{}, err
	}

	// Recorded workload phase.
	eng := m.Engines[0]
	rec := linearize.NewRecorder(threads)
	if _, err := m.Run(0, threads, func(t *sim.Thread, _, tid int) {
		gen := workload.NewGen(fig.Workload, seed+13, tid)
		for i := 0; i < opsPerWorker; i++ {
			op := gen.Next()
			rec.Exec(t, tid, op, func() uint64 {
				return eng.Execute(t, tid, op)
			})
		}
	}); err != nil {
		return linearize.Result{}, fmt.Errorf("run: %w", err)
	}

	// Probe phase: observe the final state on a fresh timeline.
	final, err := probeState(m, fig.Workload)
	if err != nil {
		return linearize.Result{}, err
	}
	return linearize.CheckEpoch(model, init, rec.Ops(), final, linearize.Options{}), nil
}

// probeState reads the object's final state through Execute: key-by-key
// Gets for set workloads, a destructive drain for pairs workloads (the
// drained sequence is the container's content in canonical order). The
// pairs drain issues updates, which on the PREP variants block on the
// background persister for buffer space — so the probe phase runs with
// background threads alive, like the measured phase.
func probeState(m *Machine, spec workload.Spec) (any, error) {
	var state any
	eng := m.Engines[0]
	if _, err := m.Run(0, 1, func(t *sim.Thread, _, _ int) {
		switch spec.Kind {
		case workload.Set:
			m := map[uint64]uint64{}
			for k := uint64(0); k < spec.KeyRange; k++ {
				if v := eng.Execute(t, 0, uc.Get(k)); v != uc.NotFound {
					m[k] = v
				}
			}
			state = m
		case workload.Pairs:
			state = drain(t, eng, spec.PushCode, spec.PopCode)
		}
	}); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if state == nil {
		return nil, fmt.Errorf("harness: cannot probe workload kind %d", spec.Kind)
	}
	return state, nil
}

// drain pops until empty and returns the content as the model's canonical
// state: FIFO order for queues, bottom-first for stacks (pop order
// reversed), ascending for priority queues (DeleteMin drains sorted).
func drain(t *sim.Thread, s uc.UC, pushCode, popCode uint64) []uint64 {
	var popped []uint64
	for {
		v := s.Execute(t, 0, uc.Op{Code: popCode, A0: 0})
		if v == uc.NotFound {
			break
		}
		popped = append(popped, v)
	}
	if pushCode == uc.OpPush { // stack: pop order is top-first
		for i, j := 0, len(popped)-1; i < j; i, j = i+1, j-1 {
			popped[i], popped[j] = popped[j], popped[i]
		}
	}
	if popped == nil {
		popped = []uint64{}
	}
	return popped
}
