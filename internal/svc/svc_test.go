package svc_test

import (
	"strings"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

func topo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: 4} }

type world struct {
	t      *testing.T
	sys    *nvm.System
	mode   core.Mode
	p      *core.PREP
	s      *svc.Service
	shards int
}

func newWorld(t *testing.T, mode core.Mode, eps uint64, shards int, batched bool, seed int64) *world {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
	w := &world{t: t, sys: sys, mode: mode, shards: shards}
	var err error
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		obj := seq.HashMapType(64)
		w.p, err = core.New(th, sys, core.Config{
			Mode: mode, Topology: topo(), Workers: shards,
			LogSize: 1024, Epsilon: eps,
			Factory: obj.New, Attacher: obj.Attach, HeapWords: 1 << 20,
		})
		if err != nil {
			return
		}
		w.s, err = svc.New(th, sys, svc.Config{
			Engine: w.p, Topology: topo(), Shards: shards,
			RingSize: 256, MaxBatch: 32, Batched: batched,
		})
	})
	sch.Run()
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return w
}

// durable waits for f's result and then for its durability mark: on return
// the operation's effect would survive a crash at any later instant.
func (w *world) durable(th *sim.Thread, f *svc.Future) uint64 {
	res := f.Wait(th)
	if f.Mark != 0 {
		w.p.AwaitDurable(th, f.Mark)
	}
	return res
}

// run spawns the consumers plus fn-per-producer and drives the machine until
// everything drains; returns the largest consumer finish clock.
func (w *world) run(seed int64, producers int, fn func(th *sim.Thread, pid int)) uint64 {
	w.t.Helper()
	sch := sim.New(seed)
	w.sys.SetScheduler(sch)
	persistent := w.mode.Persistent()
	if persistent {
		w.p.SpawnPersistence(0)
	}
	shards := w.shards
	consumersLive := shards
	var endNS uint64
	for shard := 0; shard < shards; shard++ {
		shard := shard
		sch.Spawn("consumer", topo().NodeOf(shard), 0, func(th *sim.Thread) {
			w.s.Serve(th, shard)
			if th.Clock() > endNS {
				endNS = th.Clock()
			}
			consumersLive--
			if consumersLive == 0 && persistent {
				w.p.StopPersistence(th)
			}
		})
	}
	producersLive := producers
	for pid := 0; pid < producers; pid++ {
		pid := pid
		sch.Spawn("producer", topo().NodeOf(pid%8), 0, func(th *sim.Thread) {
			fn(th, pid)
			producersLive--
			if producersLive == 0 {
				w.s.Stop()
			}
		})
	}
	sch.Run()
	return endNS
}

func TestSubmitExecutesAndCompletes(t *testing.T) {
	const producers, per = 8, 50
	w := newWorld(t, core.Volatile, 0, 2, true, 1)
	futs := make([][]*svc.Future, producers)
	w.run(100, producers, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		for i := uint64(0); i < per; i++ {
			k := uint64(pid)*1000 + i
			f := c.Submit(th, uc.Insert(k, k+7))
			if got := f.Wait(th); got != 1 {
				t.Errorf("producer %d insert(%d) = %d, want 1", pid, k, got)
			}
			futs[pid] = append(futs[pid], f)
		}
	})
	for pid := range futs {
		for i, f := range futs[pid] {
			if !f.Done {
				t.Fatalf("producer %d future %d not done", pid, i)
			}
			if f.DoneNS < f.ArrivalNS {
				t.Fatalf("future completed before it arrived")
			}
		}
	}
	st := w.p.Stats()
	if st.RingSubmits != producers*per {
		t.Errorf("RingSubmits = %d, want %d", st.RingSubmits, producers*per)
	}
	if st.RingBatchedOps != producers*per {
		t.Errorf("RingBatchedOps = %d, want %d", st.RingBatchedOps, producers*per)
	}
	// Read everything back through a direct query thread.
	sch := sim.New(200)
	w.sys.SetScheduler(sch)
	sch.Spawn("query", 0, 0, func(th *sim.Thread) {
		if got := w.p.Execute(th, 0, uc.Size()); got != producers*per {
			t.Errorf("size = %d, want %d", got, producers*per)
		}
		for pid := 0; pid < producers; pid++ {
			for i := uint64(0); i < per; i++ {
				k := uint64(pid)*1000 + i
				if got := w.p.Execute(th, 0, uc.Get(k)); got != k+7 {
					t.Errorf("get(%d) = %d, want %d", k, got, k+7)
				}
			}
		}
	})
	sch.Run()
}

func TestMixedReadWriteBatches(t *testing.T) {
	// Reads submitted after writes of the same key through the same shard
	// must observe them (FIFO ring + in-order batch execution).
	const per = 60
	w := newWorld(t, core.Volatile, 0, 2, true, 3)
	w.run(300, 4, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		for i := uint64(0); i < per; i++ {
			k := uint64(pid)<<20 | i
			c.Submit(th, uc.Insert(k, k+1))
			f := c.Submit(th, uc.Get(k))
			if got := f.Wait(th); got != k+1 {
				t.Errorf("read-after-write via ring: get(%d) = %d, want %d", k, got, k+1)
			}
		}
	})
}

func TestDurableBarrierDurableMode(t *testing.T) {
	// In Durable mode the barrier must be satisfied essentially immediately
	// (persist-before-respond), and marks must be nonzero for updates.
	w := newWorld(t, core.Durable, 64, 2, true, 5)
	w.run(500, 4, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		for i := uint64(0); i < 30; i++ {
			f := c.Submit(th, uc.Insert(uint64(pid)*100+i, i))
			if got := w.durable(th, f); got != 1 {
				t.Errorf("durable insert = %d", got)
			}
			if f.Mark == 0 {
				t.Error("update future carries no durability mark")
			}
		}
	})
}

func TestDurableBarrierForcesCycleInBufferedMode(t *testing.T) {
	// Buffered mode with a huge ε: no persistence cycle would happen
	// naturally within this run, so the durability barrier must force one through
	// the boundary-reduction helping path.
	w := newWorld(t, core.Buffered, 512, 2, true, 7)
	w.run(700, 2, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		f := c.Submit(th, uc.Insert(uint64(pid), 1))
		w.durable(th, f)
	})
	st := w.p.Stats()
	if st.PersistCycles == 0 {
		t.Error("Durable barrier returned without a persistence cycle in buffered mode")
	}
}

func TestPerOpFallback(t *testing.T) {
	// Batched=false must still complete everything, with zero marks.
	w := newWorld(t, core.Volatile, 0, 2, false, 9)
	w.run(900, 4, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid % 2)
		for i := uint64(0); i < 40; i++ {
			f := c.Submit(th, uc.Insert(uint64(pid)*100+i, i))
			f.Wait(th)
			if f.Mark != 0 {
				t.Error("per-op path produced a durability mark")
			}
		}
	})
	if st := w.p.Stats(); st.RingBatches != 0 {
		t.Errorf("RingBatches = %d on the per-op path", st.RingBatches)
	}
}

// TestBatchedThroughputGain is the deterministic (virtual-time) version of
// the PR's acceptance criterion: at high offered load the batched submission
// path must finish the same operation count in less virtual time than per-op
// execution, because each combiner handoff (and its logTail reservation)
// carries a whole batch. The amortizable overhead is largest where execution
// itself is cheapest, so the volatile engine must show a solid gain; the
// durable engine is replay-flush-bound (per-entry CLWBs dominate either
// way), so there the batched path must merely never lose.
func TestBatchedThroughputGain(t *testing.T) {
	const shards, producers, per = 2, 32, 80
	load := func(mode core.Mode, batched bool) (uint64, float64) {
		eps := uint64(0)
		if mode.Persistent() {
			eps = 64
		}
		w := newWorld(t, mode, eps, shards, batched, 11)
		end := w.run(1100, producers, func(th *sim.Thread, pid int) {
			c := w.s.Client(pid % shards)
			futs := make([]*svc.Future, 0, per)
			for i := uint64(0); i < per; i++ {
				// Fire-and-forget to keep queue depth high; wait at the end.
				futs = append(futs, c.Submit(th, uc.Insert(uint64(pid)<<20|i, i)))
			}
			for _, f := range futs {
				f.Wait(th)
			}
		})
		st := w.p.Stats()
		mean := float64(0)
		if st.RingBatches > 0 {
			mean = float64(st.RingBatchedOps) / float64(st.RingBatches)
		}
		return end, mean
	}

	batchedNS, meanBatch := load(core.Volatile, true)
	perOpNS, _ := load(core.Volatile, false)
	if meanBatch < 1.5 {
		t.Errorf("mean ring batch size %.2f; batching not engaging under load", meanBatch)
	}
	if gain := float64(perOpNS) / float64(batchedNS); gain < 1.10 {
		t.Errorf("volatile batched gain %.3fx (batched %d ns, per-op %d ns); want ≥ 1.10x", gain, batchedNS, perOpNS)
	}
	t.Logf("volatile: batched %d ns vs per-op %d ns (%.2fx), mean batch %.1f",
		batchedNS, perOpNS, float64(perOpNS)/float64(batchedNS), meanBatch)

	dBatchedNS, _ := load(core.Durable, true)
	dPerOpNS, _ := load(core.Durable, false)
	if dBatchedNS > dPerOpNS {
		t.Errorf("durable batched path slower than per-op: %d vs %d virtual ns", dBatchedNS, dPerOpNS)
	}
	t.Logf("durable: batched %d ns vs per-op %d ns (%.2fx)",
		dBatchedNS, dPerOpNS, float64(dPerOpNS)/float64(dBatchedNS))
}

func TestConfigValidation(t *testing.T) {
	sch := sim.New(13)
	sys := nvm.NewSystem(sch, nvm.Config{})
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		if _, err := svc.New(th, sys, svc.Config{Shards: 0, RingSize: 64}); err == nil {
			t.Error("Shards=0 accepted")
		}
		if _, err := svc.New(th, sys, svc.Config{Shards: 1, RingSize: 100}); err == nil {
			t.Error("non-power-of-two RingSize accepted")
		}
		if _, err := svc.New(th, sys, svc.Config{Shards: 1, RingSize: 64}); err == nil || !strings.Contains(err.Error(), "MaxBatch") {
			t.Errorf("MaxBatch=0: err = %v, want one naming MaxBatch", err)
		}
	})
	sch.Run()
}

// TestDetectStampsAndCursors covers the detectable-execution plumbing the
// crash harness relies on: with Detect on, the k-th operation submitted
// through a shard carries InvocationID(epoch, shard, k); every future's
// ExecNS (the drain instant) brackets execution from below; and the
// host-side drained cursor tracks submissions through completion.
func TestDetectStampsAndCursors(t *testing.T) {
	const per = 40
	w := newWorld(t, core.Durable, 16, 2, true, 7)
	// Rebuild the service with detection on (newWorld's has it off).
	sch := sim.New(70)
	w.sys.SetScheduler(sch)
	var err error
	sch.Spawn("reboot", 0, 0, func(th *sim.Thread) {
		w.s, err = svc.New(th, w.sys, svc.Config{
			Engine: w.p, Topology: topo(), Shards: w.shards,
			RingSize: 256, MaxBatch: 32, Batched: true,
			NamePrefix: "det", Detect: true, InvidEpoch: 3,
		})
	})
	sch.Run()
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	futs := make([][]*svc.Future, w.shards)
	w.run(700, w.shards, func(th *sim.Thread, pid int) {
		c := w.s.Client(pid) // one producer per shard: seq == submit index
		for i := uint64(0); i < per; i++ {
			k := uint64(pid)<<20 | i
			f := c.Submit(th, uc.Insert(k, k+1))
			f.Wait(th)
			futs[pid] = append(futs[pid], f)
		}
	})
	for shard := range futs {
		for i, f := range futs[shard] {
			want := svc.InvocationID(3, shard, uint64(i))
			if f.Invid != want {
				t.Fatalf("shard %d op %d: invid %#x, want %#x", shard, i, f.Invid, want)
			}
			if f.ExecNS < f.ArrivalNS || f.ExecNS > f.DoneNS {
				t.Fatalf("shard %d op %d: exec stamp %d outside [%d, %d]",
					shard, i, f.ExecNS, f.ArrivalNS, f.DoneNS)
			}
		}
		c := w.s.Client(shard)
		if c.Submitted() != per || c.Drained() != per || c.Completed() != per {
			t.Fatalf("shard %d cursors: submitted=%d drained=%d completed=%d, want all %d",
				shard, c.Submitted(), c.Drained(), c.Completed(), per)
		}
	}
}

// batchSpy records, in execution order, every operation a ring's consumer
// hands to the engine and the result it got back. With one ring that order
// is the ring's submission order, so the spy tells the test which
// submission a completion must belong to.
type batchSpy struct {
	*core.PREP
	ops []uc.Op
	res []uint64
}

func (s *batchSpy) ExecuteBatch(t *sim.Thread, tid int, ops []uc.Op, res []uint64) uint64 {
	mark := s.PREP.ExecuteBatch(t, tid, ops, res)
	s.ops = append(s.ops, ops...)
	s.res = append(s.res, res[:len(ops)]...)
	return mark
}

// TestPostedCompletionsSurviveSlotReuse drives a 4-entry ring with two
// producers that refill every slot the moment the consumer's head store
// frees it, while the consumer is still executing the batch it drained from
// those slots. A handle-free submission has no heap future: its completion
// record is assembled by the consumer, and everything in it that came from
// the slot — the arrival stamp and the invocation id — must have been copied
// out before ringHead moved, or it reads the next lap's operation. Each
// operation carries a unique token as its arrival stamp and as its value
// operand, so the k-th completion is checked field by field against the k-th
// operation the engine executed. The handle-free submissions run under
// Thread.Await, their segments inline on whichever thread holds the baton, as
// the open-loop injectors run them. One producer alternates them with
// TrySubmit and keeps the futures; they must stay intact however often the
// ring laps them.
func TestPostedCompletionsSurviveSlotReuse(t *testing.T) {
	const (
		ringSize = 4
		per      = 300 // operations per producer: 150 laps of the ring
		epoch    = 2
	)
	w := newWorld(t, core.Durable, 16, 1, true, 21)
	spy := &batchSpy{PREP: w.p}
	var completions []svc.Future
	sch := sim.New(22)
	w.sys.SetScheduler(sch)
	var err error
	sch.Spawn("reboot", 0, 0, func(th *sim.Thread) {
		w.s, err = svc.New(th, w.sys, svc.Config{
			Engine: spy, Topology: topo(), Shards: 1,
			RingSize: ringSize, MaxBatch: ringSize, Batched: true,
			NamePrefix: "lap", Detect: true, InvidEpoch: epoch,
			OnComplete: func(shard int, f *svc.Future) {
				if !f.Done || shard != 0 {
					t.Errorf("completion on shard %d, done=%v", shard, f.Done)
				}
				completions = append(completions, *f) // valid only during the callback
			},
		})
	})
	sch.Run()
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}

	token := func(pid int, i uint64) uint64 { return uint64(pid+1)<<32 | i }
	held := map[uint64]*svc.Future{} // TrySubmit futures by token
	w.run(23, 2, func(th *sim.Thread, pid int) {
		c := w.s.Client(0)
		for i := uint64(0); i < per; i++ {
			tok := token(pid, i)
			// A small shared key space and a delete every third operation
			// make the 0/1 results depend on what ran before.
			op := uc.Op{Code: uc.OpInsert, A0: i % 5, A1: tok}
			if i%3 == 2 {
				op.Code = uc.OpDelete
			}
			for {
				if pid == 1 && i%2 == 0 {
					if f, ok := c.TrySubmit(th, op, tok); ok {
						held[tok] = f
						break
					}
				} else {
					sub := c.Submission(op, tok)
					th.Await(&sub)
					if sub.Accepted() {
						break
					}
				}
				th.Step(16) // far shorter than a durable batch: the ring stays full
			}
		}
	})

	if st := w.p.Stats(); st.RingFullStalls == 0 {
		t.Fatal("the ring never filled: slots were not being reused under the consumer")
	}
	if len(completions) != 2*per || len(spy.ops) != 2*per {
		t.Fatalf("%d completions, %d executed, want %d", len(completions), len(spy.ops), 2*per)
	}
	seen := map[uint64]bool{}
	for k, f := range completions {
		op := spy.ops[k]
		if want := svc.InvocationID(epoch, 0, uint64(k)); op.Invid != want || f.Invid != want {
			t.Fatalf("completion %d: invid %#x, executed %#x, want %#x", k, f.Invid, op.Invid, want)
		}
		if f.ArrivalNS != op.A1 {
			t.Fatalf("completion %d carries arrival token %#x, its operation's is %#x", k, f.ArrivalNS, op.A1)
		}
		if f.Result != spy.res[k] {
			t.Fatalf("completion %d: result %d, engine returned %d", k, f.Result, spy.res[k])
		}
		if f.ExecNS > f.DoneNS || f.ExecNS == 0 {
			t.Fatalf("completion %d: exec %d, done %d", k, f.ExecNS, f.DoneNS)
		}
		if seen[f.ArrivalNS] {
			t.Fatalf("token %#x completed twice", f.ArrivalNS)
		}
		seen[f.ArrivalNS] = true
		if h := held[f.ArrivalNS]; h != nil && *h != f {
			t.Fatalf("held future for token %#x is %+v after the run, completed as %+v", f.ArrivalNS, *h, f)
		}
	}
	if len(held) != per/2 {
		t.Fatalf("%d futures held, want %d", len(held), per/2)
	}
}
