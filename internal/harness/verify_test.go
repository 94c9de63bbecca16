package harness

import (
	"testing"

	"prepuc/internal/seq"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// verifyScale is TinyScale with a probe-friendly key range: the verifier
// reads the final set state back key by key.
func verifyScale() Scale {
	sc := TinyScale()
	sc.KeyRange = 96
	return sc
}

const heap21 = 1 << 21

// TestVerifyPointSetWorkload checks the recorded mixed set workload of
// every construction the evaluation compares — the same ExecuteConcurrent
// call path RunFigure measures, verified for linearizability instead of
// timed.
func TestVerifyPointSetWorkload(t *testing.T) {
	sc := verifyScale()
	fig := Figure{
		ID:       "verify-set",
		Workload: workload.SetSpec(30, sc.KeyRange),
		Algos: []AlgoSpec{
			{"GL", curve(glDriver, seq.HashMapType(64), heap21, nil)},
			{"PREP-V", prepCurve("prep-volatile", 0, seq.HashMapType(64), heap21)},
			{"PREP-Buffered", prepCurve("prep-buffered", sc.EpsSmall, seq.HashMapType(64), heap21)},
			{"PREP-Durable", prepCurve("prep-durable", sc.EpsSmall, seq.HashMapType(64), heap21)},
			{"CX-PUC", curve(registered("cx"), seq.HashMapType(64), heap21, nil)},
			{"ONLL", curve(registered("onll"), seq.HashMapType(64), heap21, nil)},
			{"SOFT", curve(registered("soft"), uc.ObjectType{}, heap21,
				func(sz *uc.Sizing) { sz.SoftBuckets = 64 })},
		},
	}
	for _, algo := range fig.Algos {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			res, err := VerifyPoint(fig, sc, algo, 4, 11, 120)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("%s: %s", algo.Name, res)
			}
			t.Logf("%s: %s", algo.Name, res)
		})
	}
}

// TestVerifyPointPairsWorkloads checks the queue, stack and priority-queue
// pair workloads on the universal constructions (SOFT is a fixed-function
// hashtable and has no container form).
func TestVerifyPointPairsWorkloads(t *testing.T) {
	sc := verifyScale()
	cases := []struct {
		name string
		spec workload.Spec
		obj  uc.ObjectType
	}{
		{"queue", workload.PairsSpec(uc.OpEnqueue, uc.OpDequeue, 24), seq.QueueType()},
		{"stack", workload.PairsSpec(uc.OpPush, uc.OpPop, 24), seq.StackType()},
		{"pqueue", workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, 24), seq.PQueueType()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fig := Figure{
				ID:       "verify-" + tc.name,
				Workload: tc.spec,
				Algos: []AlgoSpec{
					{"GL", curve(glDriver, tc.obj, heap21, nil)},
					{"PREP-Buffered", prepCurve("prep-buffered", sc.EpsSmall, tc.obj, heap21)},
					{"PREP-Durable", prepCurve("prep-durable", sc.EpsSmall, tc.obj, heap21)},
					{"CX-PUC", curve(registered("cx"), tc.obj, heap21, nil)},
					{"ONLL", curve(registered("onll"), tc.obj, heap21, nil)},
				},
			}
			for _, algo := range fig.Algos {
				res, err := VerifyPoint(fig, sc, algo, 4, 23, 100)
				if err != nil {
					t.Fatal(err)
				}
				if !res.OK {
					t.Fatalf("%s: %s", algo.Name, res)
				}
				t.Logf("%s: %s", algo.Name, res)
			}
		})
	}
}

func TestModelForRejectsUnknown(t *testing.T) {
	if _, err := ModelFor(workload.Spec{Kind: workload.Pairs, PushCode: uc.OpInsert}); err == nil {
		t.Fatal("expected error for unknown pair codes")
	}
	if m, err := ModelFor(workload.SetSpec(50, 10)); err != nil || m.Name() != "set" {
		t.Fatalf("set model: %v %v", m, err)
	}
}
