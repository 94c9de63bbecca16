package main

// probe.go decorates the layer boundaries from outside: harness.AlgoSpec.Build
// and the harness.System it returns, harness.ServeDriver.Boot/Recover and the
// engine they return. The untraced pass only stamps the end of set-up and
// remembers the machines (for their counter registries); the traced pass
// additionally wraps Execute / ExecuteBatch to sample the virtual clock.
// Wrappers never call Step, so they cost no virtual time: the traced and the
// untraced pass must report bit-identical virtual results, and run() fails
// the benchmark when they do not.

import (
	"fmt"
	"time"

	"prepuc/internal/harness"
	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

// probe collects one repetition's observations.
type probe struct {
	tr    *tracer // nil on the untraced pass
	rep   int     // the repetition's span (traced pass)
	run   int     // the open "run" span, -1 when none
	start time.Time
	// preBoot names the span from the repetition's entry to the first boot:
	// schedule generation for open loops, the harness's own preamble else.
	preBoot string

	bootAt    time.Time
	setup     time.Duration // everything before the first run, plus later boots
	boot      time.Duration // the Build/Boot(+Prefill) calls alone
	machines  []*nvm.System // booted systems; a registry survives Recover
	base      metrics.Snapshot
	recEvents uint64 // events of recovery schedulers, sampled as Recover returns
	recovered []*nvm.System

	recoverHost time.Duration
	recoverVNS  uint64

	update, read, batch []uint64 // per-op / per-batch virtual durations
	batchOpNS, batchOps uint64   // sum of n*d and of n over batches
}

func newProbe(c ctx) *probe {
	return &probe{tr: c.tr, rep: c.span, run: -1, start: time.Now(), preBoot: "harness.prepare"}
}

// bootEnter marks the start of a Build or Boot call.
func (p *probe) bootEnter() {
	p.bootAt = time.Now()
	if len(p.machines) == 0 {
		p.setup += p.bootAt.Sub(p.start)
	}
	if p.tr == nil {
		return
	}
	if p.run >= 0 { // a later machine of a sharded run: the previous one is done
		p.tr.end(p.run, 0)
		p.run = -1
	}
}

// bootLeave marks the end of set-up for one machine: the construction is
// built (and, for closed workloads, prefilled).
func (p *probe) bootLeave(t *sim.Thread, sys *nvm.System) {
	now := time.Now()
	d := now.Sub(p.bootAt)
	p.setup += d
	p.boot += d
	first := len(p.machines) == 0
	p.machines = append(p.machines, sys)
	p.base = p.base.Add(sys.Metrics().Snapshot())
	if p.tr == nil {
		return
	}
	parent := p.rep
	if first {
		parent = p.tr.beginAt("setup", p.rep, p.start, 0)
		g := p.tr.beginAt(p.preBoot, parent, p.start, 0)
		p.tr.endAt(g, p.bootAt, 0)
	}
	b := p.tr.beginAt("harness.boot", parent, p.bootAt, 0)
	p.tr.endAt(b, now, t.Clock())
	if first {
		p.tr.endAt(parent, now, t.Clock())
	}
	p.run = p.tr.beginAt("run", p.rep, now, 0)
}

// finish closes the repetition and returns its host-side numbers and the
// counter deltas of the measured phase (set-up subtracted out).
func (p *probe) finish(vEnd uint64) *rep {
	total := time.Since(p.start)
	if p.tr != nil {
		if p.run >= 0 {
			p.tr.end(p.run, vEnd)
		}
	}
	r := &rep{
		traced: p.tr != nil,
		setupS: p.setup.Seconds(), bootS: p.boot.Seconds(),
		runS:         (total - p.setup).Seconds(),
		recoverHostS: p.recoverHost.Seconds(),
		update:       p.update, read: p.read, batch: p.batch,
		batchOpNS: p.batchOpNS, batchOps: p.batchOps,
	}
	var snap metrics.Snapshot
	for _, sys := range p.machines {
		snap = snap.Add(sys.Metrics().Snapshot())
		r.virt.Events += sys.Scheduler().Events()
	}
	for _, sys := range p.recovered {
		r.virt.Events += sys.Scheduler().Events()
	}
	r.virt.Events += p.recEvents
	r.virt.Snap = snap.Sub(p.base)
	r.virt.RecoverVNS = p.recoverVNS
	return r
}

// build decorates a closed-loop construction builder.
func (p *probe) build(inner harness.BuildFunc) harness.BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc harness.Scale, workers int) (harness.System, error) {
		p.bootEnter()
		s, err := inner(t, sys, sc, workers)
		if err != nil {
			return nil, err
		}
		bg, ok := s.(harness.Background)
		if !ok {
			return nil, fmt.Errorf("benchmark: %T has no background lifecycle to forward", s)
		}
		st := stampedSystem{System: s, Background: bg, p: p, sys: sys}
		if p.tr == nil {
			return st, nil
		}
		// Room for the whole run, so growth is not in the wrapper's bill.
		p.update, p.read = make([]uint64, 0, 1<<17), make([]uint64, 0, 1<<20)
		return tracedSystem{st}, nil
	}
}

// stampedSystem forwards everything and stamps the end of Prefill.
type stampedSystem struct {
	harness.System
	harness.Background
	p   *probe
	sys *nvm.System
}

func (s stampedSystem) Prefill(t *sim.Thread, ops []uc.Op) {
	s.System.Prefill(t, ops)
	s.p.bootLeave(t, s.sys)
}

// tracedSystem additionally times every Execute on the virtual clock.
type tracedSystem struct{ stampedSystem }

func (s tracedSystem) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	v0 := t.Clock()
	res := s.System.Execute(t, tid, op)
	v1 := t.Clock()
	p := s.p
	if op.Code == uc.OpGet || op.Code == uc.OpContains {
		p.read = append(p.read, v1-v0)
		p.tr.keepRaw("read", tid, 1, v0, v1)
	} else {
		p.update = append(p.update, v1-v0)
		p.tr.keepRaw("update", tid, 1, v0, v1)
	}
	return res
}

// driver decorates a serve driver. The copy shares the original's closures,
// so SpawnAux/StopAux keep addressing the live engine.
func (p *probe) driver(d *harness.ServeDriver) *harness.ServeDriver {
	w := *d
	w.Boot = func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
		p.bootEnter()
		eng, err := d.Boot(t, sys)
		if err != nil {
			return nil, err
		}
		p.bootLeave(t, sys)
		return p.engine(eng)
	}
	w.Recover = func(t *sim.Thread, recSys *nvm.System) (uc.UC, harness.RecoverInfo, error) {
		h0, v0 := time.Now(), t.Clock()
		id := -1
		if p.tr != nil {
			id = p.tr.begin("core.recover", p.run, v0)
		}
		eng, info, err := d.Recover(t, recSys)
		if err != nil {
			return nil, info, err
		}
		p.recoverHost += time.Since(h0)
		p.recoverVNS += t.Clock() - v0
		p.recEvents += t.Scheduler().Events()
		p.recovered = append(p.recovered, recSys)
		if id >= 0 {
			p.tr.end(id, t.Clock())
		}
		eng, err = p.engine(eng)
		return eng, info, err
	}
	return &w
}

// engine wraps the engine on the traced pass only.
func (p *probe) engine(eng uc.UC) (uc.UC, error) {
	if p.tr == nil {
		return eng, nil
	}
	b, okB := eng.(svc.Batcher)
	w, okW := eng.(svc.DurabilityWaiter)
	if !okB || !okW {
		return nil, fmt.Errorf("benchmark: %T lacks the batched path the traced engine forwards", eng)
	}
	if p.batch == nil {
		p.batch = make([]uint64, 0, 1<<18)
	}
	return tracedEngine{UC: eng, b: b, w: w, p: p}, nil
}

// tracedEngine forwards the engine's three entry points and times every
// ExecuteBatch on the virtual clock.
type tracedEngine struct {
	uc.UC
	b svc.Batcher
	w svc.DurabilityWaiter
	p *probe
}

func (e tracedEngine) ExecuteBatch(t *sim.Thread, tid int, ops []uc.Op, res []uint64) uint64 {
	v0 := t.Clock()
	mark := e.b.ExecuteBatch(t, tid, ops, res)
	v1 := t.Clock()
	p, n := e.p, uint64(len(ops))
	p.batch = append(p.batch, v1-v0)
	p.batchOpNS += n * (v1 - v0)
	p.batchOps += n
	p.tr.keepRaw("batch", tid, len(ops), v0, v1)
	return mark
}

func (e tracedEngine) AwaitDurable(t *sim.Thread, mark uint64) { e.w.AwaitDurable(t, mark) }
