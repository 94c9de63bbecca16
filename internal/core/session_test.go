package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

var update = flag.Bool("update", false, "print the session access-stream digests instead of comparing them")

// sessionDigests pins the combiner session's simulated access stream, one
// FNV-1a digest per {entry point} × {detectable} × {mode} cell: every
// announced nvm.Access of the worker phase in order, then the scheduler's
// event count and every worker's final clock. The session's specification
// is this stream — a reordered load shifts MSI ownership and waiter wake-up
// instants — so the digests were recorded before the four protocol copies
// were merged and must not move. Regenerate with `go test
// ./internal/core -run TestSessionAccessStream -update -v` and paste the
// printed lines.
var sessionDigests = map[string]uint64{
	"Execute/plain/PREP-V":             0x24ea966e2137f72e,
	"Execute/plain/PREP-Buffered":      0xad6b6f6ad31d86a2,
	"Execute/plain/PREP-Durable":       0x37019c747f86ca7e,
	"Execute/invid/PREP-V":             0x9fe6fff6f1ea7892,
	"Execute/invid/PREP-Buffered":      0x71a35c14ae8cb946,
	"Execute/invid/PREP-Durable":       0x9b4225e9219f9f0,
	"ExecuteBatch/plain/PREP-V":        0x1cbda35144636c5f,
	"ExecuteBatch/plain/PREP-Buffered": 0x21d14abc6e974c3f,
	"ExecuteBatch/plain/PREP-Durable":  0x21a8fbdca8c4a2e8,
	"ExecuteBatch/invid/PREP-V":        0xa5dc1291e6021da4,
	"ExecuteBatch/invid/PREP-Buffered": 0x773b70f35cc8d294,
	"ExecuteBatch/invid/PREP-Durable":  0x36a9c284ae36e023,
}

// sessionOps is worker tid's deterministic op mix: two thirds updates on a
// small shared key range (so batches conflict and deletes hit), one third
// reads. In detectable cells three updates in four carry an invocation id,
// so batches mix detectable and plain updates.
func sessionOps(tid, n int, detect bool) []uc.Op {
	ops := make([]uc.Op, n)
	for i := range ops {
		k := uint64((tid*7 + i*3) % 23)
		switch i % 6 {
		case 2, 5:
			ops[i] = uc.Get(k)
		case 4:
			ops[i] = uc.Delete(k)
		default:
			ops[i] = uc.Insert(k, uint64(tid*1000+i))
		}
		if detect && i%6 != 2 && i%6 != 5 && i%4 != 3 {
			ops[i].Invid = invidOf(tid, uint64(i))
		}
	}
	return ops
}

// sessionAccess is the part of an nvm.Access the ordering invariant reads.
type sessionAccess struct {
	thread  int
	kind    nvm.AccessKind
	mem     string
	tracked bool
}

// runSessionCell boots one engine, drives 4 workers on 2 nodes through the
// cell's entry point and returns the digest plus the recorded trace.
func runSessionCell(t *testing.T, batch, detect bool, mode Mode) (uint64, []sessionAccess) {
	t.Helper()
	const workers, opsPerWorker = 4, 36
	cfg := hashCfg(mode, workers, 64, 16)
	cfg.Topology = numa.Topology{Nodes: 2, ThreadsPerNode: 2}
	cfg.Detect = detect
	if !mode.Persistent() {
		cfg.Epsilon = 0
	}
	w := newWorld(t, cfg, nvm.Config{Seed: 17}, 5)

	h := fnv.New64a()
	var trace []sessionAccess
	w.sys.SetAccessHook(func(a nvm.Access) {
		fmt.Fprintf(h, "%d %d %s %d %t\n", a.Thread, a.Kind, a.Mem, a.Line, a.Tracked)
		trace = append(trace, sessionAccess{a.Thread, a.Kind, a.Mem, a.Tracked})
	})
	defer w.sys.SetAccessHook(nil)

	var clocks [workers]uint64
	sch := w.runWorkers(workers, 0, func(th *sim.Thread, tid int) {
		ops := sessionOps(tid, opsPerWorker, detect)
		if batch {
			// Batch sizes cycle 1..5, so some batches are pure reads, and
			// every other batch waits for its durability mark.
			res := make([]uint64, 5)
			for i, n, b := 0, 1, 0; i < len(ops); i, n, b = i+n, n%5+1, b+1 {
				end := min(i+n, len(ops))
				mark := w.p.ExecuteBatch(th, tid, ops[i:end], res)
				if b%2 == 1 {
					w.p.AwaitDurable(th, mark)
				}
			}
		} else {
			for _, op := range ops {
				w.p.Execute(th, tid, op)
			}
		}
		clocks[tid] = th.Clock()
	})

	fmt.Fprintf(h, "events %d clocks %v\n", sch.Events(), clocks)
	return h.Sum64(), trace
}

// TestSessionAccessStream pins the session's access stream per cell and, in
// the Durable detectable cells, asserts the ordering invariant directly from
// the trace: every tracked flush of a descriptor line by a thread is followed
// by a fence of that thread before its next store to the log (the full
// marks), so no effect of a batch can survive a crash without its descriptor.
func TestSessionAccessStream(t *testing.T) {
	for _, batch := range []bool{false, true} {
		for _, detect := range []bool{false, true} {
			for _, mode := range []Mode{Volatile, Buffered, Durable} {
				entry, order := "Execute", "plain"
				if batch {
					entry = "ExecuteBatch"
				}
				if detect {
					order = "invid"
				}
				name := fmt.Sprintf("%s/%s/%s", entry, order, mode)
				t.Run(name, func(t *testing.T) {
					got, trace := runSessionCell(t, batch, detect, mode)
					if *update {
						fmt.Printf("\t%q: %#x,\n", name, got)
					} else if want := sessionDigests[name]; got != want {
						t.Errorf("access-stream digest = %#x, want %#x", got, want)
					}
					if !detect || mode != Durable {
						return
					}
					unfenced := map[int]bool{} // thread → has a desc flush no fence covers yet
					descFlushes := 0
					for i, a := range trace {
						switch {
						case a.kind == nvm.AccFlush && a.tracked && strings.HasSuffix(a.mem, ".desc"):
							unfenced[a.thread] = true
							descFlushes++
						case a.kind == nvm.AccFence:
							unfenced[a.thread] = false
						case a.kind == nvm.AccStore && strings.HasSuffix(a.mem, ".log") && unfenced[a.thread]:
							t.Fatalf("access %d: thread %d stores to the log with an unfenced descriptor flush", i, a.thread)
						}
					}
					if descFlushes == 0 {
						t.Error("no tracked descriptor flush in a Durable detectable cell")
					}
				})
			}
		}
	}
}

// TestExecuteBatchRejectsBadSlicesUpFront: an oversized batch and a result
// slice shorter than the batch are both refused before the session starts —
// nothing reserved, no lock held — so the engine keeps serving afterwards.
func TestExecuteBatchRejectsBadSlicesUpFront(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ops, res  int
		wantPanic string
	}{
		{"batch over MaxBatch", MaxBatch + 1, MaxBatch + 1, "core: ExecuteBatch batch exceeds MaxBatch"},
		{"short result slice", 3, 2, "core: ExecuteBatch result slice shorter than the batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, hashCfg(Durable, 1, 256, 64), nvm.Config{Costs: sim.UnitCosts()}, 1)
			ops := make([]uc.Op, tc.ops)
			for i := range ops {
				ops[i] = uc.Insert(uint64(i), 1)
			}
			var got any
			func() {
				defer func() { got = recover() }()
				w.query(func(th *sim.Thread) { w.p.ExecuteBatch(th, 0, ops, make([]uint64, tc.res)) })
			}()
			if s, _ := got.(string); !strings.HasSuffix(s, tc.wantPanic) {
				t.Fatalf("ExecuteBatch panicked with %#v, want %q", got, tc.wantPanic)
			}
			w.query(func(th *sim.Thread) {
				if tail := w.p.log.LogTail(th); tail != 0 {
					t.Errorf("logTail = %d after a refused batch, want 0", tail)
				}
				if got := w.p.Execute(th, 0, uc.Insert(7, 7)); got != 1 {
					t.Errorf("insert after a refused batch = %d, want 1", got)
				}
			})
		})
	}
}
