package svc_test

import (
	"strings"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
)

// TestEngineConfigValidation: a service needs its engine.
func TestEngineConfigValidation(t *testing.T) {
	sch := sim.New(41)
	sys := nvm.NewSystem(sch, nvm.Config{})
	obj := seq.HashMapType(64)
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		var eng *core.PREP
		eng, err = core.New(th, sys, core.Config{
			Mode: core.Volatile, Topology: topo(), Workers: 2,
			LogSize: 64, Factory: obj.New, Attacher: obj.Attach, HeapWords: 1 << 16,
		})
		if err != nil {
			return
		}
		cfg := svc.Config{Topology: topo(), Shards: 2, RingSize: 16, MaxBatch: 8}
		if _, e := svc.New(th, sys, cfg); e == nil {
			t.Error("config without an engine accepted")
		}
		cfg.Engine = eng
		if _, e := svc.New(th, sys, cfg); e != nil {
			t.Errorf("config with an engine rejected: %v", e)
		}
	})
	sch.Run()
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
}

// TestInvocationIDBounds documents exactly why the packing needs guards: a
// shard or sequence component one past its field ceiling aliases a DIFFERENT
// valid (epoch, shard, seq) triple — two operations, one id — and asserts
// that svc.New rejects configurations that could reach those ceilings.
func TestInvocationIDBounds(t *testing.T) {
	// All-extremes corners stay distinct inside the valid ranges.
	ids := map[uint64]string{}
	for _, e := range []uint64{0, svc.MaxInvidEpoch} {
		for _, s := range []int{0, svc.MaxInvidShard} {
			for _, q := range []uint64{0, svc.MaxInvidSeq} {
				id := svc.InvocationID(e, s, q)
				if id == 0 {
					t.Errorf("InvocationID(%d,%d,%d) = 0 (reserved for non-detectable)", e, s, q)
				}
				if prev, dup := ids[id]; dup {
					t.Errorf("InvocationID(%d,%d,%d) collides with %s", e, s, q, prev)
				}
				ids[id] = "earlier corner"
			}
		}
	}

	// One past the seq field: wraps into a collision with seq 0.
	if svc.InvocationID(0, 0, svc.MaxInvidSeq+2) != svc.InvocationID(0, 0, 0) {
		t.Error("expected seq overflow to alias seq 0 (packing changed? update guards)")
	}
	// Two past the shard field: wraps into a collision with shard 0.
	if svc.InvocationID(0, svc.MaxInvidShard+2, 9) != svc.InvocationID(0, 0, 9) {
		t.Error("expected shard overflow to alias shard 0 (packing changed? update guards)")
	}

	// New refuses detectable configs whose ids could corrupt.
	sch := sim.New(51)
	sys := nvm.NewSystem(sch, nvm.Config{})
	obj := seq.HashMapType(64)
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		eng, err := core.New(th, sys, core.Config{
			Mode: core.Volatile, Topology: topo(), Workers: 2,
			LogSize: 64, Factory: obj.New, Attacher: obj.Attach, HeapWords: 1 << 16,
		})
		if err != nil {
			t.Errorf("core.New: %v", err)
			return
		}
		_, err = svc.New(th, sys, svc.Config{
			Engine: eng, Topology: topo(), Shards: svc.MaxInvidShard + 2,
			RingSize: 16, MaxBatch: 8, Detect: true,
		})
		if err == nil || !strings.Contains(err.Error(), "invocation-id") {
			t.Errorf("oversized shard count: err = %v, want invocation-id bound error", err)
		}
		_, err = svc.New(th, sys, svc.Config{
			Engine: eng, Topology: topo(), Shards: 2,
			RingSize: 16, MaxBatch: 8, Detect: true, InvidEpoch: svc.MaxInvidEpoch + 1,
		})
		if err == nil || !strings.Contains(err.Error(), "invocation-id") {
			t.Errorf("oversized epoch: err = %v, want invocation-id bound error", err)
		}
		// The same configurations without Detect are legal: no ids are
		// stamped, so the packing cannot corrupt. (Shard count kept small —
		// ring memories are real.)
		_, err = svc.New(th, sys, svc.Config{
			Engine: eng, Topology: topo(), Shards: 2,
			RingSize: 16, MaxBatch: 8, InvidEpoch: svc.MaxInvidEpoch + 1,
		})
		if err != nil {
			t.Errorf("non-detect config rejected: %v", err)
		}
	})
	sch.Run()
}
