// Package svc is the asynchronous client front-end over a universal
// construction: clients Submit operations and get back Futures; per-shard
// consumer threads drain the submission rings and push whole batches into
// the construction through one combiner handoff (core.PREP.ExecuteBatch),
// amortizing the contended logTail CAS and combiner acquisition over the
// batch.
//
// Completion and durability are decoupled (delay-free style): Future.Wait
// returns as soon as the operation has executed and its result is known,
// and the future's Mark, handed to the engine's DurabilityWaiter, blocks
// until the operation would survive a crash — an explicit persistence
// barrier the client pays only when it needs the guarantee.
//
// The ring is a fixed-size MPSC queue in simulated node-local volatile
// memory, so producers pay realistic coherence costs for the tail CAS and
// the consumer reads entries at local latency. Results travel host-side
// through the Future (the simulated machine would return them through a
// completion ring; the virtual-time cost of that path is the consumer's
// stores, which the entry writes already charge).
package svc

import (
	"fmt"

	"prepuc/internal/metrics"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Ring memory layout (word offsets). Head and tail live on separate cache
// lines; each entry occupies one line.
const (
	ringHead    = 0                    // consumer cursor (plain store)
	ringTail    = nvm.WordsPerLine     // producer cursor (CAS)
	ringEntries = 2 * nvm.WordsPerLine // first entry
	entryWords  = nvm.WordsPerLine
	entryState  = 0
	entryCode   = 1
	entryA0     = 2
	entryA1     = 3
	entryInvid  = 4
)

// InvocationID packing widths: epoch+1 occupies the top 8 bits, shard+1 the
// next 16, seq+1 the low 40. A component past its ceiling would silently
// alias another (epoch, shard, seq) triple — two distinct operations with
// one invocation id, which breaks the exactly-once dedup — so New and the
// stamp path reject out-of-range components instead of wrapping.
const (
	// MaxInvidEpoch is the largest valid Config.InvidEpoch (epoch+1 must
	// fit 8 bits).
	MaxInvidEpoch = 1<<8 - 2
	// MaxInvidShard is the largest valid shard index (shard+1 must fit 16
	// bits), so a detectable service holds at most MaxInvidShard+1 rings.
	MaxInvidShard = 1<<16 - 2
	// MaxInvidSeq is the largest valid per-shard sequence number (seq+1
	// must fit 40 bits): ~1.1e12 operations per ring per epoch.
	MaxInvidSeq = 1<<40 - 2
)

// InvocationID builds the client-assigned invocation id for the seq-th
// operation submitted on shard during service epoch epoch. Every component
// is biased by one so a valid id is never zero (zero means "not
// detectable" to the engine), and the epoch salt keeps ids from distinct
// service generations — e.g. before and after a crash — disjoint.
//
// Components must respect MaxInvidEpoch/MaxInvidShard/MaxInvidSeq; the
// packing silently corrupts beyond them. New validates epoch and shard
// bounds up front, the submit path checks seq — callers building ids by
// hand (recovery resume plans) stay inside the ranges New accepted.
func InvocationID(epoch uint64, shard int, seq uint64) uint64 {
	return (epoch+1)<<56 | (uint64(shard)+1)<<40 | (seq + 1)
}

// Batcher is the batched execution path of a construction. core.PREP
// implements it; constructions that don't are driven per-op.
type Batcher interface {
	ExecuteBatch(t *sim.Thread, tid int, ops []uc.Op, res []uint64) uint64
}

// DurabilityWaiter turns a Batcher durability mark into a barrier.
type DurabilityWaiter interface {
	AwaitDurable(t *sim.Thread, mark uint64)
}

// Future is the handle for one submitted operation. Fields are written by
// the service only; readers use them after Wait (or Done reports true).
type Future struct {
	// Result is the operation's return value, valid once Done.
	Result uint64
	// Done is set by the consumer after the operation executed.
	Done bool
	// Mark is the durability mark of the batch that carried the operation
	// (0 when the construction has no batched path or the op was read-only).
	Mark uint64
	// ArrivalNS and DoneNS bracket the operation's life in virtual time:
	// arrival is when the (possibly open-loop) client generated it, DoneNS
	// when its result was delivered. DoneNS − ArrivalNS is the latency a
	// coordinated-omission-free measurement wants.
	ArrivalNS uint64
	DoneNS    uint64
	// Invid is the invocation id the operation was stamped with (0 unless
	// Config.Detect). After a crash, recovery's resolved map is keyed by it.
	Invid uint64
	// ExecNS is the instant the consumer drained the operation's batch —
	// the earliest its execution can have started. [ExecNS, DoneNS] brackets
	// the operation's linearization point far tighter than the arrival
	// window; history checkers want it.
	ExecNS uint64
}

// Wait blocks (polling in virtual time) until the future completes and
// returns its result.
func (f *Future) Wait(t *sim.Thread) uint64 {
	t.Await(&doneWait{f: f})
	return f.Result
}

// doneWait is Future.Wait's poller: each round reads Done and, while it is
// false, steps the backoff ladder. Done is a host-side flag, not a memory
// line, so no store announces the completion: the wait never parks.
type doneWait struct {
	f *Future
	b sim.Backoff
}

// Poll runs one round (sim.Poller).
func (w *doneWait) Poll(*sim.Thread) (uint64, bool) {
	if w.f.Done {
		return 0, true
	}
	return w.b.Next(1024), false
}

// Config configures a Service.
type Config struct {
	// Engine executes operations; if it also implements Batcher, drained
	// batches go through ExecuteBatch, otherwise one Execute per op.
	Engine uc.UC
	// Topology places each shard's ring on the consumer's node.
	Topology numa.Topology
	// Shards is the number of submission rings (and consumer threads).
	// Shard s's consumer runs as worker tid s; spawn it on Topology.NodeOf(s).
	Shards int
	// RingSize is the per-shard ring capacity in entries (power of two).
	RingSize uint64
	// MaxBatch caps how many contiguous entries one drain hands to
	// ExecuteBatch; 0 means core.MaxBatch-compatible 64.
	MaxBatch int
	// NamePrefix namespaces the ring memories. Memory names are global to a
	// System and survive Recover, so a service built on a recovered system
	// must use a fresh prefix (e.g. "svc2") to avoid clashing with the
	// pre-crash generation's rings.
	NamePrefix string
	// Batched disables the batched path when false even if Engine implements
	// Batcher (for per-op baselines).
	Batched bool
	// OnComplete, if set, is invoked for every completed future (after its
	// fields are final). The open-loop harness hooks latency histograms here.
	// For a handle-free submission (Client.Submission) the record lives in
	// the consumer's scratch and is valid only for the duration of the
	// callback.
	OnComplete func(shard int, f *Future)
	// Detect stamps every submission with a unique invocation id
	// (InvocationID) so a detectable engine (core.Config.Detect) durably
	// records each update's fate and recovery can resolve the in-flight
	// window to exactly-once semantics. Off, no id is stamped or carried
	// and the ring traffic is identical to a build without the feature.
	Detect bool
	// InvidEpoch salts the invocation ids. Distinct service generations
	// over one machine lifetime — e.g. pre-crash and resumed — must use
	// distinct epochs so their ids never collide.
	InvidEpoch uint64
}

// Service owns the per-shard submission rings.
type Service struct {
	cfg   Config
	met   *metrics.Registry
	rings []*ring
	// batcher is the engine's batched path (nil when disabled or
	// unimplemented).
	batcher Batcher
	stopped bool
}

// ring is one shard's MPSC submission queue plus its host-side future table.
type ring struct {
	mem  *nvm.Memory
	size uint64
	// futures and arrivals are the host-side halves of the slots: the
	// submitter's handle, or nil for a handle-free one, whose arrival stamp
	// is kept beside it for the completion record the consumer builds. A
	// slot is restamped as soon as ringHead has moved past it, so the
	// consumer copies both out while draining, before it stores ringHead.
	futures  []*Future
	arrivals []uint64
	// submitted, drained and completed are host-side tallies the crash
	// harness reads to size the in-flight window at a crash cut: entries in
	// [completed, drained) had reached the engine, entries in
	// [drained, submitted) were still queued and so provably never executed.
	submitted uint64
	drained   uint64
	completed uint64
	// parked is the consumer while its head wait is parked, for Stop to wake.
	parked *sim.Thread
}

// fullMark is the nonzero state value marking entry idx written; the parity
// flip per lap means a previous lap's mark can never read as full.
func (r *ring) fullMark(idx uint64) uint64 { return 1 + (idx/r.size)%2 }

func (r *ring) entryOff(idx uint64) uint64 {
	return ringEntries + (idx%r.size)*entryWords
}

// New builds the service and its rings on sys.
func New(t *sim.Thread, sys *nvm.System, cfg Config) (*Service, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("svc: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.RingSize == 0 || cfg.RingSize&(cfg.RingSize-1) != 0 {
		return nil, fmt.Errorf("svc: RingSize must be a power of two, got %d", cfg.RingSize)
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("svc: Engine must be set")
	}
	if cfg.Detect {
		// Reject packings InvocationID would corrupt (see MaxInvid*).
		if cfg.Shards-1 > MaxInvidShard {
			return nil, fmt.Errorf("svc: %d shards exceed the invocation-id shard field (max %d)",
				cfg.Shards, MaxInvidShard+1)
		}
		if cfg.InvidEpoch > MaxInvidEpoch {
			return nil, fmt.Errorf("svc: InvidEpoch %d exceeds the invocation-id epoch field (max %d)",
				cfg.InvidEpoch, MaxInvidEpoch)
		}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "svc"
	}
	s := &Service{cfg: cfg, met: sys.Metrics()}
	if cfg.Batched {
		s.batcher, _ = cfg.Engine.(Batcher)
	}
	for shard := 0; shard < cfg.Shards; shard++ {
		mem := sys.NewMemory(fmt.Sprintf("%s.ring%d", cfg.NamePrefix, shard),
			nvm.Volatile, cfg.Topology.NodeOf(shard), ringEntries+cfg.RingSize*entryWords)
		s.rings = append(s.rings, &ring{
			mem:      mem,
			size:     cfg.RingSize,
			futures:  make([]*Future, cfg.RingSize),
			arrivals: make([]uint64, cfg.RingSize),
		})
	}
	return s, nil
}

// Client returns a submission handle bound to one shard. Any number of
// producer threads may share a client (the ring is MPSC).
type Client struct {
	svc   *Service
	shard int
	r     *ring
}

// Client returns the handle for shard.
func (s *Service) Client(shard int) *Client {
	return &Client{svc: s, shard: shard, r: s.rings[shard]}
}

// TrySubmit attempts to enqueue op, stamping the future with arrivalNS. It
// fails (nil, false) when the ring is full — open-loop injectors keep their
// own backlog rather than blocking the arrival timeline. The future is the
// caller's to keep: it stays valid however many times the ring laps it.
func (c *Client) TrySubmit(t *sim.Thread, op uc.Op, arrivalNS uint64) (*Future, bool) {
	e := Submission{c: c, op: op, arrival: arrivalNS, handle: true}
	for {
		cost, done := e.Poll(t)
		if done {
			return e.f, e.ok
		}
		t.Step(cost)
	}
}

// A Submission is the enqueue protocol of one operation cut into poll
// segments at its Steps (a sim.Poller): load the tail, load the head — on a
// full ring count a stall and report done, rejected — CAS the tail, a lost
// CAS restarting at the tail load, then store the entry's code, A0, A1, the
// invocation id (Config.Detect only) and last its full mark. Every access is
// split into its Begin half, which ends a segment and prices its Step, and
// its End half, which starts the next one, so the submission is the same
// ring traffic wherever its segments run. TrySubmit runs one with the plain
// Poll-and-Step loop; an injector hands its own poller's segments to one
// (Client.Submission) and runs them all under sim.Thread.Await.
type Submission struct {
	c       *Client
	op      uc.Op
	arrival uint64
	// handle selects whether the slot carries a heap Future back to the
	// caller (TrySubmit) or the arrival stamp beside it, for the completion
	// record the consumer builds (a handle-free submission).
	handle bool
	seg    int
	tail   uint64
	f      *Future
	ok     bool
}

// Submission segments: each names the access whose End half starts it.
const (
	subStart = iota
	subTail
	subHead
	subCAS
	subCode
	subA0
	subA1
	subInvid
	subState
)

// Submission arms a handle-free submission of op, stamped arrivalNS, to the
// client's ring: the same ring traffic as TrySubmit, no Future allocated.
// The operation's completion is observable only through Config.OnComplete,
// on a record the consumer owns (see there) — the path for producers that
// never look at a result, like the open-loop injectors.
func (c *Client) Submission(op uc.Op, arrivalNS uint64) Submission {
	return Submission{c: c, op: op, arrival: arrivalNS}
}

// Accepted reports, once Poll has reported done, whether the ring took the
// operation; false means it was full.
func (e *Submission) Accepted() bool { return e.ok }

// Poll runs the submission's next segment (sim.Poller). It never Steps: it
// returns the cost of the Step that follows the segment, or done.
func (e *Submission) Poll(t *sim.Thread) (uint64, bool) {
	r := e.c.r
	off := r.entryOff(e.tail)
	switch e.seg {
	case subStart:
	case subTail:
		e.tail = r.mem.LoadEnd(ringTail)
		e.seg = subHead
		return r.mem.LoadBegin(t, ringHead), false
	case subHead:
		if e.tail-r.mem.LoadEnd(ringHead) >= r.size {
			e.c.svc.met.RingFullStalls++
			return 0, true
		}
		e.seg = subCAS
		return r.mem.CASBegin(t, ringTail), false
	case subCAS:
		if !r.mem.CASEnd(t, ringTail, e.tail, e.tail+1) {
			break // lost: restart at the tail load
		}
		if e.handle {
			e.f = &Future{ArrivalNS: e.arrival}
		} else {
			r.arrivals[e.tail%r.size] = e.arrival
		}
		r.futures[e.tail%r.size] = e.f
		e.seg = subCode
		return r.mem.StoreBegin(t, off+entryCode), false
	case subCode:
		r.mem.StoreEnd(t, off+entryCode, e.op.Code)
		e.seg = subA0
		return r.mem.StoreBegin(t, off+entryA0), false
	case subA0:
		r.mem.StoreEnd(t, off+entryA0, e.op.A0)
		e.seg = subA1
		return r.mem.StoreBegin(t, off+entryA1), false
	case subA1:
		r.mem.StoreEnd(t, off+entryA1, e.op.A1)
		if !e.c.svc.cfg.Detect {
			e.seg = subState
			return r.mem.StoreBegin(t, off+entryState), false
		}
		if e.tail > MaxInvidSeq {
			panic("svc: per-shard sequence number exceeds the invocation-id seq field")
		}
		e.seg = subInvid
		return r.mem.StoreBegin(t, off+entryInvid), false
	case subInvid:
		invid := InvocationID(e.c.svc.cfg.InvidEpoch, e.c.shard, e.tail)
		if e.handle {
			e.f.Invid = invid
		}
		r.mem.StoreEnd(t, off+entryInvid, invid)
		e.seg = subState
		return r.mem.StoreBegin(t, off+entryState), false
	case subState:
		r.mem.StoreEnd(t, off+entryState, r.fullMark(e.tail))
		r.submitted++
		e.c.svc.met.RingSubmits++
		e.ok = true
		return 0, true
	}
	e.seg = subTail
	return r.mem.LoadBegin(t, ringTail), false
}

// Submit enqueues op, blocking (with backoff) while the ring is full. The
// arrival stamp is the submission instant.
func (c *Client) Submit(t *sim.Thread, op uc.Op) *Future {
	var b sim.Backoff
	for {
		if f, ok := c.TrySubmit(t, op, t.Clock()); ok {
			return f
		}
		t.Step(b.Next(4096))
	}
}

// Submitted, Drained and Completed report the shard's host-side tallies.
func (c *Client) Submitted() uint64 { return c.r.submitted }
func (c *Client) Drained() uint64   { return c.r.drained }
func (c *Client) Completed() uint64 { return c.r.completed }

// Stop asks every consumer to exit once its ring is drained. Host-side: the
// caller decides the machine is done (e.g. all injectors finished), which no
// simulated agent needs to observe. The caller must hold the baton, as the
// last injector does. A parked consumer (its head wait is a sim.Parker) is
// woken first, because no store announces the flag: the rounds it skipped
// up to the caller's dispatch replay with Stop not yet raised.
func (s *Service) Stop() {
	for _, r := range s.rings {
		if t := r.parked; t != nil {
			t.Scheduler().Wake(t)
		}
	}
	s.stopped = true
}

// serveIdleCost is the virtual cost of one empty consumer poll.
const serveIdleCost = 200

// headWait is the consumer's wait for a full head entry, cut into poll
// segments (a sim.Parker run by Thread.Await): load ringHead, load that
// entry's state; on a miss report done if Stop was called, else step
// serveIdleCost and start over. An idle consumer thus polls an empty ring
// without being switched in, and between two rounds that can only miss again
// it parks until a store to ringHead's line or the head entry's.
type headWait struct {
	s    *Service
	r    *ring
	seg  int    // 0: load ringHead; 1: read it, load its entry's state; 2: read that
	head uint64 // the head entry's index
	full bool   // the wait ended on a full head entry, not on Stop
}

// Poll runs the wait's next segment (sim.Poller).
func (w *headWait) Poll(t *sim.Thread) (uint64, bool) {
	r := w.r
	switch w.seg {
	case 0:
		w.seg = 1
		return r.mem.LoadBegin(t, ringHead), false
	case 1:
		w.head = r.mem.LoadEnd(ringHead)
		w.seg = 2
		return r.mem.LoadBegin(t, r.entryOff(w.head)+entryState), false
	}
	w.seg = 0
	w.full = r.mem.LoadEnd(r.entryOff(w.head)+entryState) == r.fullMark(w.head)
	if w.full || w.s.stopped {
		return 0, true
	}
	return serveIdleCost, false
}

// Park reports whether the wait is steady (sim.Parker): t is between two
// rounds, Stop is not raised, the head entry is still empty, and both lines
// a round loads are shared or t's own. Then t watches them.
func (w *headWait) Park(t *sim.Thread) bool {
	if w.seg != 0 || w.s.stopped {
		return false
	}
	r := w.r
	head, ok := r.mem.Watch(t, ringHead)
	if ok {
		var state uint64
		state, ok = r.mem.Watch(t, r.entryOff(head)+entryState)
		ok = ok && state != r.fullMark(head)
	}
	if !ok {
		r.mem.Unwatch(t)
		return false
	}
	r.parked = t
	return true
}

// Unpark ends the watches Park set (sim.Parker).
func (w *headWait) Unpark(t *sim.Thread) {
	w.r.mem.Unwatch(t)
	w.r.parked = nil
}

// String names what the wait watches, for the scheduler's deadlock verdict.
func (w *headWait) String() string {
	return w.r.mem.Name() + " head entry full, or Stop"
}

// Serve is shard's consumer loop: drain up to MaxBatch contiguous submitted
// entries, execute them as one batch, complete the futures, repeat. It runs
// as worker tid shard and returns after Stop once the ring is empty.
func (s *Service) Serve(t *sim.Thread, shard int) {
	r := s.rings[shard]
	ops := make([]uc.Op, s.cfg.MaxBatch)
	res := make([]uint64, s.cfg.MaxBatch)
	futs := make([]*Future, s.cfg.MaxBatch)
	posted := make([]Future, s.cfg.MaxBatch) // completion records of handle-free entries
	wait := &headWait{s: s, r: r}
	for {
		t.Await(wait)
		if !wait.full {
			return // stopped, and the ring is empty
		}
		head := wait.head
		n := 0
		for {
			idx := head + uint64(n)
			off := r.entryOff(idx)
			ops[n] = uc.Op{
				Code: r.mem.Load(t, off+entryCode),
				A0:   r.mem.Load(t, off+entryA0),
				A1:   r.mem.Load(t, off+entryA1),
			}
			if s.cfg.Detect {
				ops[n].Invid = r.mem.Load(t, off+entryInvid)
			}
			// Everything host-side the completion needs leaves the slot now:
			// once ringHead is stored below, a producer may restamp it.
			f := r.futures[idx%r.size]
			if f == nil {
				f = &posted[n]
				*f = Future{ArrivalNS: r.arrivals[idx%r.size], Invid: ops[n].Invid}
			}
			futs[n] = f
			n++
			// Stop at the first entry not yet fully written — including a
			// slot a producer has CASed but not filled. The wait read the
			// head entry's state.
			if n == s.cfg.MaxBatch || r.mem.Load(t, r.entryOff(idx+1)+entryState) != r.fullMark(idx+1) {
				break
			}
		}
		r.mem.Store(t, ringHead, head+uint64(n))
		r.drained = head + uint64(n)
		execNS := t.Clock()
		var mark uint64
		if s.batcher != nil {
			mark = s.batcher.ExecuteBatch(t, shard, ops[:n], res[:n])
		} else {
			for i := 0; i < n; i++ {
				res[i] = s.cfg.Engine.Execute(t, shard, ops[i])
			}
		}
		for i := 0; i < n; i++ {
			f := futs[i]
			f.Result = res[i]
			f.Mark = mark
			f.ExecNS = execNS
			f.DoneNS = t.Clock()
			f.Done = true
			r.completed++
			if s.cfg.OnComplete != nil {
				s.cfg.OnComplete(shard, f)
			}
		}
	}
}
