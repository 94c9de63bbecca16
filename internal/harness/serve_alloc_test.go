package harness

import (
	"runtime"
	"testing"

	"prepuc/internal/openloop"
)

// allocsOf runs fn and returns the bytes and objects it allocated. The
// harness tests do not run in parallel, so the process-wide counters are
// fn's own (plus the runtime's background noise, far below the budgets).
func allocsOf(t *testing.T, fn func() (completed uint64)) (completed, bytes, mallocs uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	completed = fn()
	runtime.ReadMemStats(&after)
	return completed, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestServeAllocationSlope bounds what one more operation costs the host:
// the same geometry is run for D and for 2D virtual nanoseconds, and the
// extra allocation divided by the extra completed operations must stay
// within a budget. The schedule is drawn as the load reaches it and each
// ring keeps only its live window, in recycled blocks, so an operation pays
// nothing for its arrival record unless the live window itself grows with
// the run, as the overload backlog does (22.6 of its 30.1 B; the rest of
// each marginal is nvm page privatisation). Nothing per operation is
// allocated on the submit/complete path, and no allocation call at all.
// Each budget is the marginal measured when the schedule began to stream
// (3.6 / 30.1 / 27.8 B) plus 25 %. Boot, rings, the histogram and everything else that is
// per run cancels in the difference, so a reintroduced per-operation
// allocation — a materialized schedule, an escaping arrival, a heap future,
// an append-grown window, a backlog queue — fails here rather than in the
// next benchmark run.
func TestServeAllocationSlope(t *testing.T) {
	open := openloop.Config{
		Clients: 50_000, Keys: 1 << 14, KeySkew: 1.2, ReadPct: 80,
		Rate: 4e6, DurationNS: 8_000_000, Seed: 99,
	}
	steady := ServeConfig{Shards: 4, RingSize: 1024, MaxBatch: 32, Batched: true, Seed: 5, Open: open}
	overload := steady
	overload.RingSize, overload.Open.ReadPct, overload.Open.Rate = 64, 0, 4e7
	overload.Open.DurationNS = 1_000_000
	sharded := ShardedServeConfig{
		Instances: 4, Route: "hash", TotalWorkers: 4, Jobs: 1,
		RingSize: 1024, MaxBatch: 32, Batched: true, Seed: 5, Open: open,
	}
	sharded.Open.Rate = 1.6e7
	sharded.Open.DurationNS = 2_000_000

	flat := func(cfg ServeConfig) func(uint64) uint64 {
		return func(durNS uint64) uint64 {
			cfg.Open.DurationNS = durNS
			res, err := RunServe(ServeDrivers(cfg.Shards, 64)[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Submitted {
				t.Fatalf("completed %d of %d", res.Completed, res.Submitted)
			}
			return res.Completed
		}
	}
	for _, tc := range []struct {
		name       string
		durNS      uint64
		run        func(durNS uint64) uint64
		bytesPerOp float64
		stalls     bool
	}{
		{"steady", steady.Open.DurationNS, flat(steady), 4.5, false},
		{"overload", overload.Open.DurationNS, flat(overload), 38, true},
		{"sharded", sharded.Open.DurationNS, func(durNS uint64) uint64 {
			cfg := sharded
			cfg.Open.DurationNS = durNS
			res, err := RunShardedServe(durableFactory(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Completed
		}, 35, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n1, b1, m1 := allocsOf(t, func() uint64 { return tc.run(tc.durNS) })
			n2, b2, m2 := allocsOf(t, func() uint64 { return tc.run(2 * tc.durNS) })
			if n2 < n1+n1/2 {
				t.Fatalf("doubling the duration took completions from %d to %d only", n1, n2)
			}
			extra := float64(n2 - n1)
			bytes := (float64(b2) - float64(b1)) / extra
			mallocs := (float64(m2) - float64(m1)) / extra
			t.Logf("%d → %d ops: %.1f B and %.4f mallocs per additional op (totals %d → %d B, %d → %d mallocs)",
				n1, n2, bytes, mallocs, b1, b2, m1, m2)
			if bytes > tc.bytesPerOp {
				t.Errorf("marginal allocation %.1f B/op, budget %.1f", bytes, tc.bytesPerOp)
			}
			if mallocs > 0.05 {
				t.Errorf("marginal %.4f mallocs/op, budget 0.05", mallocs)
			}
		})
	}
}
