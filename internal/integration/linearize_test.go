package integration

// Crash-aware linearizability of the persistent constructions: every system
// runs a recorded mixed workload, crashes mid-flight under the `targeted`
// fault adversary, recovers, and the recorded invoke/response history plus
// the probed recovered state must satisfy the system's durable-
// linearizability condition (buffered for PREP-Buffered, with the ε+β−1
// completed-loss allowance). Two crash/recover cycles chain — each epoch's
// probed state is the next epoch's initial state — followed by a crash-free
// epoch checked strictly.

import (
	"fmt"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/harness"
	"prepuc/internal/linearize"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

const (
	linWorkers = 4
	linEpsilon = 32
	linLogSize = 256
	// linAllowance is PREP-Buffered's completed-loss budget ε+β−1 with
	// β = ThreadsPerNode of topo() at linWorkers workers.
	linAllowance = linEpsilon + linWorkers/2 - 1
)

// linSizing is the shared crash scale at the test's geometry around obj.
func linSizing(obj uc.ObjectType) uc.Sizing {
	sz := drivers.CrashScale(topo(), linWorkers, linLogSize, linEpsilon)
	sz.Object = obj
	return sz
}

// runLinEpochs drives a system through crashes crash/recover cycles and one
// crash-free tail epoch, checking every epoch's recorded history against
// the model. Crashing epochs use the targeted fault adversary, sweeping the
// dropped-line index with the epoch.
func runLinEpochs(t *testing.T, d *uc.Driver, model linearize.Model, spec workload.Spec,
	seed int64, crashes int, crashAt uint64, tailOps int) {
	t.Helper()
	m := bootUnit(t, d, 128, uint64(seed)+7)

	init := model.Empty()
	totalOps := 0
	for epoch := 0; epoch <= crashes; epoch++ {
		crashing := epoch < crashes
		pol, perr := fault.Parse(fmt.Sprintf("targeted=%d", epoch), uint64(seed)+uint64(epoch)*13)
		if perr != nil {
			t.Fatal(perr)
		}
		m.Sys.SetFaultPolicy(pol)

		// A crash-free epoch is the same phase unarmed: its workers run
		// tailOps operations each and the last one out stops the background
		// threads (a crash just unwinds them).
		at := uint64(0)
		if crashing {
			at = crashAt + uint64(epoch)*7_777
		}
		rec := linearize.NewRecorder(linWorkers)
		sch, err := m.Run(at, linWorkers, func(th *sim.Thread, _, tid int) {
			gen := workload.NewGen(spec, seed+int64(epoch)*101+17, tid)
			for i := 0; crashing || i < tailOps; i++ {
				op := gen.Next()
				rec.Exec(th, tid, op, func() uint64 { return m.Engines[0].Execute(th, tid, op) })
			}
		})
		if err != nil {
			t.Fatalf("%s epoch %d: %v", d.Name, epoch, err)
		}

		if crashing {
			if !sch.Frozen() {
				t.Fatalf("%s epoch %d: crash at %d never fired", d.Name, epoch, crashAt)
			}
			recoverOnce(t, m)
		}

		recovered := linProbe(m, spec)
		opt := linearize.Options{}
		if crashing && d.Buffered {
			opt = linearize.Options{Buffered: true, Allowance: linAllowance}
		}
		res := linearize.CheckEpoch(model, init, rec.Ops(), recovered, opt)
		if !res.OK {
			t.Fatalf("%s epoch %d (crashing=%v): %s", d.Name, epoch, crashing, res)
		}
		totalOps += res.Ops
		if !crashing && res.Lost != 0 {
			t.Fatalf("%s crash-free epoch lost %d completed ops", d.Name, res.Lost)
		}
		if spec.Kind == workload.Pairs {
			// The probe drained the container: the next epoch starts empty.
			init = model.Empty()
		} else {
			init = recovered
		}
	}
	t.Logf("%s: %d recorded ops over %d crash/recover cycles linearizable", d.Name, totalOps, crashes)
}

// linProbe observes the recovered state on a fresh timeline: key-by-key
// Gets for sets, a destructive drain for containers (drain updates need the
// background threads alive on the PREP variants).
func linProbe(m *harness.Machine, spec workload.Spec) any {
	var state any
	eng := m.Engines[0]
	if _, err := m.Run(0, 1, func(th *sim.Thread, _, _ int) {
		switch spec.Kind {
		case workload.Set:
			kv := map[uint64]uint64{}
			for k := uint64(0); k < spec.KeyRange; k++ {
				if v := eng.Execute(th, 0, uc.Get(k)); v != uc.NotFound {
					kv[k] = v
				}
			}
			state = kv
		case workload.Pairs:
			var vs []uint64
			for {
				v := eng.Execute(th, 0, uc.Op{Code: spec.PopCode})
				if v == uc.NotFound {
					break
				}
				vs = append(vs, v)
			}
			if spec.PushCode == uc.OpPush { // stack drains top-first
				for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
			if vs == nil {
				vs = []uint64{}
			}
			state = vs
		}
	}); err != nil {
		panic(err)
	}
	return state
}

// TestLinearizeCrashRecoverSet chains two targeted-fault crash/recover
// cycles plus a crash-free epoch of the mixed set workload on all five
// persistent systems and checks durable linearizability of every epoch.
func TestLinearizeCrashRecoverSet(t *testing.T) {
	spec := workload.SetSpec(30, 64)
	spec.Prefill = 0
	for i, e := range drivers.Recoverable() {
		d := e.New(linSizing(seq.HashMapType(64)))
		seed := int64(9100 + i*500)
		t.Run(d.Name, func(t *testing.T) {
			runLinEpochs(t, d, linearize.SetModel(), spec, seed, 2, 18_000, 80)
		})
	}
}

// TestLinearizeCrashRecoverPairs does the same over the container
// workloads on the universal constructions (SOFT is a fixed-function
// hashtable and has no container form).
func TestLinearizeCrashRecoverPairs(t *testing.T) {
	cases := []struct {
		name  string
		spec  workload.Spec
		model linearize.Model
		obj   uc.ObjectType
	}{
		{"queue", workload.PairsSpec(uc.OpEnqueue, uc.OpDequeue, 0), linearize.QueueModel(), seq.QueueType()},
		{"stack", workload.PairsSpec(uc.OpPush, uc.OpPop, 0), linearize.StackModel(), seq.StackType()},
		{"pqueue", workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, 0), linearize.PQueueModel(), seq.PQueueType()},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for i, e := range drivers.Recoverable() {
				if e.Flag == "soft" {
					continue
				}
				d := e.New(linSizing(tc.obj))
				seed := int64(31000 + ci*2000 + i*500)
				t.Run(d.Name, func(t *testing.T) {
					runLinEpochs(t, d, tc.model, tc.spec, seed, 2, 14_000, 60)
				})
			}
		})
	}
}
