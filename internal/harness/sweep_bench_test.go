package harness

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// BenchmarkNestedCrashSweep measures the host-side cost of the crash-sweep
// inner loop at a realistic heap size (the crashtest engines run 1<<21-word
// heaps): clone the frozen post-crash machine, arm a crash inside recovery,
// run to the freeze, materialize the nested crash, then recover fully. The
// workload that produced the machine runs once, in setup; each iteration
// sweeps a fixed set of crash points, so ns/op tracks exactly the work the
// -nested and -sweep modes of cmd/crashtest repeat per crash point. With
// deep-copy snapshots this is O(heap words) per point; with copy-on-write
// pages it is O(pages recovery actually touches).
func BenchmarkNestedCrashSweep(b *testing.B) {
	b.ReportAllocs()
	const (
		workers = 4
		seed    = int64(42)
		updates = uint64(2000)
		points  = 8
	)
	tp := numa.Topology{Nodes: 1, ThreadsPerNode: workers}
	d := core.NewDriver(core.ConfigFor(core.Durable, uc.Sizing{
		Topology: tp, Workers: workers, Object: seq.HashMapType(1024),
		LogSize: 1 << 12, Epsilon: 128, HeapWords: 1 << 21,
	}))
	m, err := BootMachine(tp, seed, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 64, Seed: uint64(seed)}, d)
	if err != nil {
		b.Fatal(err)
	}
	runSch := m.Run(seed+1, 400_000, workers, func(t *sim.Thread, _, tid int) {
		for i := uint64(0); i < updates; i++ {
			m.Engines[0].Execute(t, tid, uc.Insert(uint64(tid)<<32|i, i))
		}
	})
	if !runSch.Frozen() {
		b.Fatal("workload finished without crashing")
	}
	base := m.Sys.Recover(sim.New(seed + 2))

	// Probe once for the recovery event ceiling, then spread the sweep's
	// crash points across it.
	_, probeSch, _, err := recoverClone(d, base, seed+3, 0)
	if err != nil {
		b.Fatal(err)
	}
	ceiling := probeSch.Events()
	if ceiling < points {
		b.Fatalf("recovery too short to sweep: %d events", ceiling)
	}
	stride := ceiling / points

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := uint64(1); k <= points; k++ {
			trial, trialSch, _, _ := recoverClone(d, base, seed+3, k*stride) // cut down by the armed crash
			if !trialSch.Frozen() {
				b.Fatalf("point %d: recovery finished before armed crash", k)
			}
			if _, err := drivers.Recover(d, trial, seed+4, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
