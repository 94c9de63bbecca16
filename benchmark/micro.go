package main

// micro.go holds the micro-drivers: isolated timings of one layer's public
// functions, each sized from the counter mix the attached workload itself
// reported (its load:store:CAS ratio, its flushes per fence, its lines per
// WBINVD, its mean batch). They run on one simulated thread unless the
// metric says otherwise, for at least the duration run() hands them.

import (
	"fmt"
	"runtime"
	"time"

	"prepuc/internal/core"
	"prepuc/internal/linearize"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/openloop"
	"prepuc/internal/oplog"
	"prepuc/internal/pmem"
	"prepuc/internal/seq"
	"prepuc/internal/shard"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

// microCtx is what a micro-driver is given.
type microCtx struct {
	min   time.Duration
	base  *rep // the workload's own untraced repetition: the counter mix
	costs sim.Costs
	open  openloop.Config // the workload's arrival schedule, if it has one
}

var microDrivers = map[string]func(m microCtx, v values) error{
	"sim.step":          microSimStep,
	"nvm.access":        microAccess,
	"nvm.flush_fence":   microFlushFence,
	"nvm.wbinvd":        microWBINVD,
	"nvm.clone":         microClone,
	"nvm.crash_recover": microCrashRecover,
	"seq.hashmap":       microHashMap,
	"pmem.alloc":        microAlloc,
	"oplog.append":      microAppend,
	"svc.submit_drain":  microSubmitDrain,
	"openloop":          microOpenLoop,
	"shard.route":       microRoute,
	"linearize.check":   microLinearize,
}

// perUnit calls batch with a unit count that doubles, starting at first,
// while a batch is short next to min, until min has been spent in the
// measured parts; it returns host nanoseconds per unit.
func perUnit(min time.Duration, first int, batch func(n int) time.Duration) float64 {
	var total time.Duration
	units := 0
	for n := first; ; {
		d := batch(n)
		total += d
		units += n
		if total >= min {
			return float64(total.Nanoseconds()) / float64(units)
		}
		if d < min/8 {
			n *= 2
		}
	}
}

// oneThread runs body on a single simulated thread of a fresh machine and
// returns the host time body reports for its measured part.
func oneThread(costs sim.Costs, body func(t *sim.Thread, sys *nvm.System) time.Duration) time.Duration {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: costs, Seed: 7})
	var d time.Duration
	sch.Spawn("micro", 0, 0, func(t *sim.Thread) { d = body(t, sys) })
	sch.Run()
	return d
}

// xorshift is the micro-drivers' address stream: cheap enough not to show.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

const microWords = 1 << 21 // an engine heap's size (HeapWords of the serve drivers)

// microSimStep: dispatch cost per Step, 8 simulated threads, mostly cheap
// steps with an occasional fence-sized one (the run-ahead path's real diet).
func microSimStep(m microCtx, v values) error {
	const threads = 8
	var costs [1024]uint64
	x := xorshift(1)
	for i := range costs {
		costs[i] = x.next()%4 + 1
		if x.next()%16 == 0 {
			costs[i] = 300
		}
	}
	v["sim.step_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		sch := sim.New(1)
		for i := 0; i < threads; i++ {
			i := i
			sch.Spawn("micro", i%2, 0, func(t *sim.Thread) {
				for j := 0; j < n/threads; j++ {
					t.Step(costs[(j+i*131)&1023])
				}
			})
		}
		h0 := time.Now()
		sch.Run()
		return time.Since(h0)
	})
	return nil
}

// microAccess: host cost per simulated memory access at the workload's own
// load:store:CAS ratio, addresses spread over an engine-sized heap.
func microAccess(m microCtx, v values) error {
	s := m.base.virt.Snap
	total := s.Loads + s.Stores + s.CASes
	if total == 0 {
		return nil
	}
	const (
		load = iota
		store
		cas
	)
	var kinds [4096]uint8
	x := xorshift(2)
	for i := range kinds {
		switch r := x.next() % total; {
		case r < s.Loads:
			kinds[i] = load
		case r < s.Loads+s.Stores:
			kinds[i] = store
		default:
			kinds[i] = cas
		}
	}
	v["nvm.access_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			mem := sys.NewMemory("heap", nvm.NVM, 0, microWords)
			h0 := time.Now()
			for i := 0; i < n; i++ {
				off := x.next() % microWords
				switch kinds[i&4095] {
				case load:
					mem.Load(t, off)
				case store:
					mem.Store(t, off, uint64(i))
				default:
					mem.CAS(t, off, 0, uint64(i))
				}
			}
			return time.Since(h0)
		})
	})
	return nil
}

// microFlushFence: host cost per persistence instruction (CLWB or SFENCE) at
// the workload's own flushes-per-fence ratio. Each flush is preceded by the
// store that makes its line dirty (a clean line's flush is elided), and that
// store is part of the price.
func microFlushFence(m microCtx, v values) error {
	s := m.base.virt.Snap
	if s.Flushes == 0 || s.Fences == 0 {
		return nil
	}
	perFence := int((s.Flushes + s.Fences/2) / s.Fences)
	if perFence < 1 {
		perFence = 1
	}
	v["nvm.flush_fence_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			mem := sys.NewMemory("log", nvm.NVM, 0, microWords)
			f := sys.NewFlusher()
			h0 := time.Now()
			for i, line := 0, uint64(0); i < n; line++ {
				off := line * nvm.WordsPerLine % microWords
				mem.Store(t, off, line)
				f.FlushLine(t, mem, off)
				i++
				if int(line+1)%perFence == 0 {
					f.Fence(t)
					i++
				}
			}
			return time.Since(h0)
		})
	})
	return nil
}

// microWBINVD: host cost of one checkpoint (dirty the workload's own mean
// lines per WBINVD, write the cache back, fence).
func microWBINVD(m microCtx, v values) error {
	s := m.base.virt.Snap
	if s.WBINVDs == 0 {
		return nil
	}
	lines := s.WBINVDLines / s.WBINVDs
	if lines == 0 {
		lines = 1
	}
	v["nvm.wbinvd_host_us"] = perUnit(m.min, 16, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			mem := sys.NewMemory("heap", nvm.NVM, 0, microWords)
			f := sys.NewFlusher()
			h0 := time.Now()
			for i := 0; i < n; i++ {
				for l := uint64(0); l < lines; l++ {
					mem.Store(t, (uint64(i)*lines+l)*nvm.WordsPerLine%microWords, uint64(i))
				}
				sys.WBINVD(t, mem)
				f.Fence(t)
			}
			return time.Since(h0)
		})
	}) / 1000
	return nil
}

// snapshotMachine builds a machine shaped like a crashed serve engine: a
// large, mostly clean NVM heap, a volatile region, 1024 dirty lines and a
// few lines flushed but not fenced.
func snapshotMachine() *nvm.System {
	sch := sim.New(1)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts(), Seed: 7})
	sch.Spawn("micro", 0, 0, func(t *sim.Thread) {
		heap := sys.NewMemory("heap", nvm.NVM, 0, microWords)
		sys.NewMemory("dram", nvm.Volatile, 0, microWords/2)
		f := sys.NewFlusher()
		for l := uint64(0); l < 1024; l++ {
			heap.Store(t, l*(microWords/1024), l+1)
		}
		for l := uint64(0); l < 8; l++ {
			f.FlushLine(t, heap, l*(microWords/1024))
		}
	})
	sch.Run()
	return sys
}

// microClone: host cost of one System.Clone (copy-on-write page sharing).
func microClone(m microCtx, v values) error {
	sys := snapshotMachine()
	v["nvm.clone_host_us"] = perUnit(m.min, 4, func(n int) time.Duration {
		h0 := time.Now()
		for i := 0; i < n; i++ {
			sys.Clone(sim.New(int64(i) + 2))
		}
		return time.Since(h0)
	}) / 1000
	return nil
}

// microCrashRecover: host cost of materialising one crash image
// (System.Recover over a clone with pending lines; the clone is not timed).
func microCrashRecover(m microCtx, v values) error {
	sys := snapshotMachine()
	v["nvm.crash_recover_host_us"] = perUnit(m.min, 4, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			c := sys.Clone(sim.New(int64(i) + 2))
			h0 := time.Now()
			c.Recover(sim.New(int64(i) + 3))
			d += time.Since(h0)
		}
		return d
	}) / 1000
	return nil
}

// microHashMap: one hashmap read (Contains) on both clocks, the closed
// geometry's 2^14 keys at 50% occupancy.
func microHashMap(m microCtx, v values) error {
	const keys = 1 << 14
	var vns, ops uint64
	v["seq.hashmap_op_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			a := pmem.New(t, sys.NewMemory("heap", nvm.Volatile, 0, keys*40))
			h := seq.NewHashMap(t, a, keys/8)
			for k := uint64(0); k < keys; k += 2 {
				h.Put(t, k, k)
			}
			x := xorshift(3)
			h0, v0 := time.Now(), t.Clock()
			for i := 0; i < n; i++ {
				h.Contains(t, x.next()%keys)
			}
			vns += t.Clock() - v0
			ops += uint64(n)
			return time.Since(h0)
		})
	})
	v["seq.hashmap_op_vns"] = float64(vns) / float64(ops)
	return nil
}

// microAlloc: host cost per allocator call (Alloc or Free of a node-sized
// block, free list warm).
func microAlloc(m microCtx, v values) error {
	v["pmem.alloc_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			a := pmem.New(t, sys.NewMemory("heap", nvm.Volatile, 0, 1<<16))
			h0 := time.Now()
			for i := 0; i < n/2; i++ {
				a.Free(t, a.Alloc(t, 4))
			}
			return time.Since(h0)
		})
	})
	return nil
}

// microAppend: host cost per log entry appended (reserve by tail CAS, write
// arguments, set the full mark) at the workload's own mean batch.
func microAppend(m microCtx, v values) error {
	batch := uint64(m.base.virt.Snap.MeanBatchSize + 0.5)
	if batch == 0 {
		return nil
	}
	const entries = 1 << 12
	v["oplog.append_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		return oneThread(m.costs, func(t *sim.Thread, sys *nvm.System) time.Duration {
			l := oplog.New(t, sys.NewMemory("log", nvm.NVM, 0, oplog.WordsFor(entries)), entries)
			h0 := time.Now()
			for done := uint64(0); done < uint64(n); done += batch {
				tail := l.LogTail(t)
				l.CASLogTail(t, tail, tail+batch)
				for i := tail; i < tail+batch; i++ {
					l.WriteArgs(t, i, uc.OpInsert, i, i)
				}
				for i := tail; i < tail+batch; i++ {
					l.SetFull(t, i)
				}
			}
			return time.Since(h0)
		})
	})
	return nil
}

// microSubmitDrain: host cost per operation through the submission path end
// to end (4 producers, 2 rings, 32-op batches, volatile engine): tail CAS and
// entry write, drain, ExecuteBatch, future completion.
func microSubmitDrain(m microCtx, v values) error {
	const shards, producers = 2, 4
	tp := numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	var bootErr error
	ns := perUnit(m.min, 1<<10, func(n int) time.Duration {
		sch := sim.New(1)
		sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
		var s *svc.Service
		sch.Spawn("boot", 0, 0, func(t *sim.Thread) {
			obj := seq.HashMapType(1024)
			p, err := core.New(t, sys, core.Config{
				Mode: core.Volatile, Topology: tp, Workers: shards, LogSize: 4096,
				Factory: obj.New, Attacher: obj.Attach, HeapWords: 1 << 22,
			})
			if err == nil {
				s, err = svc.New(t, sys, svc.Config{
					Engine: p, Topology: tp, Shards: shards,
					RingSize: serveRing, MaxBatch: serveBatch, Batched: true,
				})
			}
			bootErr = err
		})
		sch.Run()
		if bootErr != nil {
			return m.min
		}
		run := sim.New(2)
		sys.SetScheduler(run)
		for sh := 0; sh < shards; sh++ {
			sh := sh
			run.Spawn("serve", tp.NodeOf(sh), 0, func(t *sim.Thread) { s.Serve(t, sh) })
		}
		live := producers
		for pid := 0; pid < producers; pid++ {
			pid := pid
			run.Spawn("produce", tp.NodeOf(pid), 0, func(t *sim.Thread) {
				c := s.Client(pid % shards)
				futs := make([]*svc.Future, 0, 256)
				wait := func() {
					for _, f := range futs {
						f.Wait(t)
					}
					futs = futs[:0]
				}
				for i := 0; i < n/producers; i++ {
					futs = append(futs, c.Submit(t, uc.Insert(uint64(i%4096), uint64(i))))
					if len(futs) == cap(futs) {
						wait()
					}
				}
				wait()
				if live--; live == 0 {
					s.Stop()
				}
			})
		}
		h0 := time.Now()
		run.Run()
		return time.Since(h0)
	})
	if bootErr != nil {
		return fmt.Errorf("svc.submit_drain: %w", bootErr)
	}
	v["svc.submit_drain_host_ns"] = ns
	return nil
}

// microOpenLoop: host cost per generated arrival of the workload's own
// schedule, and per histogram record.
func microOpenLoop(m microCtx, v values) error {
	var genErr error
	var arrivals int
	var spent time.Duration
	for spent < m.min/2 && genErr == nil {
		h0 := time.Now()
		arr, err := openloop.Generate(m.open)
		spent += time.Since(h0)
		arrivals += len(arr)
		genErr = err
	}
	if genErr != nil {
		return genErr
	}
	v["openloop.generate_host_ns_per_arrival"] = float64(spent.Nanoseconds()) / float64(arrivals)
	var h openloop.Histogram
	x := xorshift(4)
	v["openloop.hist_record_host_ns"] = perUnit(m.min/2, 1<<10, func(n int) time.Duration {
		h0 := time.Now()
		for i := 0; i < n; i++ {
			h.Record(x.next() % (1 << 22))
		}
		return time.Since(h0)
	})
	return nil
}

var sink int // keeps the router's result alive

// microRoute: host cost of routing one key.
func microRoute(m microCtx, v values) error {
	r, err := shard.NewRouter(shard.Hash, shardInstances, m.open.Keys)
	if err != nil {
		return err
	}
	v["shard.route_host_ns"] = perUnit(m.min, 1<<10, func(n int) time.Duration {
		h0 := time.Now()
		for i := 0; i < n; i++ {
			sink += r.Route(uint64(i))
		}
		return time.Since(h0)
	})
	return nil
}

// microLinearize: host cost of adjudicating one explorer-sized leaf (three
// operations by two clients plus the probed state), scaled to the leaves the
// exploration reported.
func microLinearize(m microCtx, v values) error {
	ops := []linearize.Op{
		{Client: 0, Code: uc.OpInsert, A0: 1, A1: 10, Result: 1, Invoke: 10, Return: 400, Class: linearize.Completed},
		{Client: 1, Code: uc.OpInsert, A0: 2, A1: 20, Result: 1, Invoke: 20, Return: 500, Class: linearize.Completed},
		{Client: 0, Code: uc.OpGet, A0: 2, Invoke: 450, Return: ^uint64(0), Class: linearize.InFlight},
	}
	state := map[uint64]uint64{1: 10, 2: 20}
	if res := linearize.CheckEpoch(linearize.SetModel(), nil, ops, state, linearize.Options{}); !res.OK {
		return fmt.Errorf("linearize.check: micro history rejected: %s", res)
	}
	perCheck := perUnit(m.min, 64, func(n int) time.Duration {
		h0 := time.Now()
		for i := 0; i < n; i++ {
			linearize.CheckEpoch(linearize.SetModel(), nil, ops, state, linearize.Options{})
		}
		return time.Since(h0)
	})
	leaves := float64(m.base.virt.Leaves)
	v["linearize.check_host_ms"] = perCheck * leaves / 1e6
	v["linearize.ops_checked"] = float64(len(ops)) * leaves
	return nil
}

// timeJ2 times run at Jobs=2 on two host threads, in seconds.
func timeJ2(run func(jobs int) error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	h0 := time.Now()
	err := run(2)
	return time.Since(h0).Seconds(), err
}
