package main

// workloads.go defines the eight workloads. Each is one call of a public
// entry point the CLIs call (harness.RunFigure, harness.RunServe,
// harness.RunShardedServe, explore.Run) at a fixed geometry, with only the
// seed taken from the command line; README.md records why each was chosen
// and which layers it stresses or bypasses.

import (
	"fmt"

	"prepuc/internal/explore"
	"prepuc/internal/harness"
	"prepuc/internal/metrics"
	"prepuc/internal/openloop"
	wl "prepuc/internal/workload"
)

// ctx is what one repetition is given.
type ctx struct {
	seed int64
	// scale shrinks every virtual duration; 1 is the benchmark, the tests
	// run at 1/50.
	scale float64
	// tr is nil on the untraced pass; span is the repetition's own span.
	tr   *tracer
	span int
	// setupOnly ends a closed-loop repetition right after set-up (the
	// measured phase lasts one virtual nanosecond): a cheap extra sample of
	// setup_s. Open loops ignore it: their schedule generation, part of
	// set-up, scales with the run.
	setupOnly bool
}

func (c ctx) ns(full uint64) uint64 { return uint64(float64(full) * c.scale) }

// virtual is everything a repetition reports that is a pure function of the
// seed: the harness's own results, the counter deltas of the measured phase
// and the simulator's event count. It is comparable; repetitions of one
// invocation, traced or not, must agree on it exactly.
type virtual struct {
	Ops       uint64 // completed operations
	Attempted uint64 // operations issued (closed) or scheduled (open)
	Submitted uint64 // operations accepted into a ring (open)
	VTput     float64
	ThreadNS  uint64 // workers x virtual duration
	Lat       harness.LatencyNS
	Ring      harness.RingStats
	Imbalance float64

	Crashed                                        bool
	RecoveryNS, StallNS, Replayed                  uint64
	LostInflight, InFlightResolved, DuplicatesSeen uint64
	RecoverVNS                                     uint64 // the Recover wrapper's own clock delta

	Snap   metrics.Snapshot
	Events uint64

	Schedules, Leaves, Counterexamples, Diverged int
	DPORPruned, DPORBranches                     uint64
	Truncated                                    bool
}

// rep is one repetition's result.
type rep struct {
	traced              bool
	setupS, bootS, runS float64
	recoverHostS        float64
	allocBytes          uint64
	virt                virtual

	update, read, batch []uint64
	batchOpNS, batchOps uint64
}

type workload struct {
	name, why string
	// contract workloads have both clocks and are listed in BENCHMARK.json;
	// explore_small has no virtual clock and runs in the suite only.
	contract bool
	// closed loops have no arrival stamps: their latency is the traced
	// Execute wrapper's, so even --trace 0 runs one traced repetition.
	closed bool
	rep    func(c ctx) (*rep, error)
	// gate is the untimed correctness check; it returns what is wrong.
	gate func(c ctx, r *rep) []string
	// extras adds the traced pass's additional runs (nil: none).
	extras func(c ctx, r *rep, v values) error
	// micro names the micro-drivers attached to this workload.
	micro []string
	// open is the arrival schedule of an open-loop workload (nil: closed).
	open func(c ctx) openloop.Config
}

var workloads = []*workload{
	closedWorkload("closed_update_durable",
		"combiner + oplog append + per-entry flush/fence under Optane flush prices; bypasses svc, openloop, shard",
		"PREP-Durable", 0, 200_000_000,
		[]string{"sim.step", "nvm.access", "nvm.flush_fence", "oplog.append"}),
	closedWorkload("closed_update_buffered",
		"same layers, almost no flushes but WBINVD checkpoints and flush-boundary stalls dominate",
		"PREP-Buffered", 0, 200_000_000,
		[]string{"sim.step", "nvm.access", "nvm.wbinvd", "pmem.alloc"}),
	closedWorkload("closed_read",
		"read path only: sim dispatch, reader locks, seq, nvm loads; zero oplog/flush/persist work",
		"PREP-Durable", 100, 20_000_000,
		[]string{"sim.step", "nvm.access", "seq.hashmap"}),
	serveWorkload("serve_steady",
		"open loop at 30% of capacity: ring hop + small batches, latency is service time not backlog",
		serveParams{rate: 1.2e7, readPct: 80, keys: 1 << 16, durNS: 20_000_000},
		[]string{"sim.step", "nvm.access", "svc.submit_drain", "openloop"}),
	serveWorkload("serve_overload",
		"open loop at 1.65x capacity, update-only: rings full, batches at 31, throughput is the pipeline ceiling",
		serveParams{rate: 2e7, readPct: 0, keys: 1 << 16, durNS: 6_000_000},
		[]string{"sim.step", "nvm.access", "svc.submit_drain", "oplog.append"}),
	serveWorkload("serve_crash",
		"crash at half time under the targeted adversary: crash materialisation, core.Recover, resume and dedup",
		serveParams{rate: 1e7, readPct: 20, keys: 1 << 14, durNS: 10_000_000, crashAtNS: 5_000_000},
		[]string{"sim.step", "nvm.access", "nvm.clone", "nvm.crash_recover"}),
	shardedWorkload(),
	exploreWorkload(),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- closed loop: harness.RunFigure, one cell ---

const (
	closedWorkers = 8
	closedEpsilon = 2048 // SmallScale().EpsLarge
	verifyOps     = 200  // per worker, for harness.VerifyPoint
	refDurationNS = 20_000_000
)

// closedCell builds the one-cell figure: the catalogue's own PREP builder at
// ε=2048 on the small scale (Optane cost profile, 2x8 topology, 2^14 keys,
// log 2^14), a set workload with the given read share.
func closedCell(c ctx, figID, algo string, readPct int, durNS uint64) (harness.Figure, harness.Scale, error) {
	sc := harness.SmallScale()
	sc.Threads = []int{closedWorkers}
	sc.DurationNS = c.ns(durNS)
	if c.setupOnly {
		sc.DurationNS = 1
	}
	for _, a := range harness.Catalog(sc)[figID].Algos {
		if a.Name == algo {
			return harness.Figure{
				ID: "benchmark", Title: algo,
				Workload: wl.SetSpec(readPct, sc.KeyRange),
				Algos:    []harness.AlgoSpec{a},
			}, sc, nil
		}
	}
	return harness.Figure{}, sc, fmt.Errorf("benchmark: catalogue figure %s has no algo %q", figID, algo)
}

func closedWorkload(name, why, mode string, readPct int, durNS uint64, micro []string) *workload {
	algo := fmt.Sprintf("%s(e=%d)", mode, closedEpsilon)
	w := &workload{name: name, why: why, contract: true, closed: true, micro: micro}
	w.rep = func(c ctx) (*rep, error) {
		fig, sc, err := closedCell(c, "fig2a", algo, readPct, durNS)
		if err != nil {
			return nil, err
		}
		p := newProbe(c)
		fig.Algos[0].Build = p.build(fig.Algos[0].Build)
		pts, err := harness.RunFigure(fig, sc, c.seed, 1, nil)
		if err != nil {
			return nil, err
		}
		r := p.finish(sc.DurationNS)
		r.virt.Ops, r.virt.Attempted = pts[0].Ops, pts[0].Ops
		r.virt.VTput = pts[0].OpsPerSec
		r.virt.ThreadNS = closedWorkers * sc.DurationNS
		return r, nil
	}
	w.gate = func(c ctx, r *rep) []string {
		var bad []string
		if h := r.virt.Snap.ReplayHoles; h != 0 {
			bad = append(bad, fmt.Sprintf("replay_holes = %d", h))
		}
		fig, sc, err := closedCell(c, "fig2a", algo, readPct, durNS)
		if err != nil {
			return append(bad, err.Error())
		}
		res, err := harness.VerifyPoint(fig, sc, fig.Algos[0], closedWorkers, c.seed, verifyOps)
		if err != nil {
			bad = append(bad, "VerifyPoint: "+err.Error())
		} else if !res.OK {
			bad = append(bad, "VerifyPoint: "+res.String())
		}
		return bad
	}
	if readPct == 0 {
		w.extras = func(c ctx, r *rep, v values) error { return referenceCurves(c, r, v) }
	}
	return w
}

// referenceCurves runs the other constructions on the closed_update
// geometry for 20 virtual ms each. The repo holds no hardware reference
// numbers, so the cost model is unvalidated and no error figure is given.
func referenceCurves(c ctx, r *rep, v values) error {
	for _, ref := range []struct{ metric, fig, algo string }{
		{"cxpuc.vtput_ops_per_s", "fig2a", "CX-PUC"},
		{"soft.vtput_ops_per_s", "fig6a", "SOFT-largeB"},
		{"onll.vtput_ops_per_s", "ext-onll", "ONLL"},
		{"gluc.vtput_ops_per_s", "fig1a", "GL"},
	} {
		fig, sc, err := closedCell(c, ref.fig, ref.algo, 0, refDurationNS)
		if err != nil {
			return err
		}
		pts, err := harness.RunFigure(fig, sc, c.seed, 1, nil)
		if err != nil {
			return err
		}
		v[ref.metric] = pts[0].OpsPerSec
	}
	if cx := v["cxpuc.vtput_ops_per_s"]; cx > 0 {
		v["core.speedup_vs_cxpuc"] = r.virt.VTput / cx
	}
	return nil
}

// --- open loop: harness.RunServe ---

const (
	serveShards  = 4
	serveEpsilon = 64
	serveRing    = 1024
	serveBatch   = 32
	serveClients = 200_000
	serveSkew    = 1.2
)

type serveParams struct {
	rate             float64
	readPct          int
	keys             uint64
	durNS, crashAtNS uint64
}

func prepDurable(shards int) (*harness.ServeDriver, error) {
	for _, d := range harness.ServeDrivers(shards, serveEpsilon) {
		if d.Name == "PREP-Durable" {
			return d, nil
		}
	}
	return nil, fmt.Errorf("benchmark: harness.ServeDrivers has no PREP-Durable")
}

func serveConfig(c ctx, p serveParams) harness.ServeConfig {
	cfg := harness.ServeConfig{
		Shards: serveShards, RingSize: serveRing, MaxBatch: serveBatch, Batched: true,
		Seed: c.seed,
		Open: openloop.Config{
			Clients: serveClients, Keys: p.keys, KeySkew: serveSkew, ReadPct: p.readPct,
			Rate: p.rate, DurationNS: c.ns(p.durNS), Seed: c.seed + 1000,
		},
	}
	if p.crashAtNS > 0 {
		cfg.CrashAtNS = c.ns(p.crashAtNS)
		cfg.Policy = "targeted"
	}
	return cfg
}

// twinConfig is the CI geometry of the checked runs (ci.yml's exactly-once
// smoke): small enough for the linearizability search. Check is never turned
// on at the measured geometry — the WGL search blows up on the Zipf hot key.
func twinConfig(seed int64, crash bool) harness.ServeConfig {
	cfg := harness.ServeConfig{
		Shards: 2, RingSize: serveRing, MaxBatch: serveBatch, Batched: true,
		Seed: seed, Check: true,
		Open: openloop.Config{
			Clients: 20_000, Keys: 4096, KeySkew: serveSkew, ReadPct: 80,
			Rate: 2e6, DurationNS: 400_000, ThinkNS: 20_000,
			BurstEveryNS: 100_000, BurstLenNS: 20_000, BurstFactor: 4,
			Seed: seed + 1000,
		},
	}
	if crash {
		cfg.CrashAtNS = 200_000
		cfg.Policy = "targeted"
	}
	return cfg
}

// scheduled counts the arrivals of an open-loop schedule, once per
// schedule: repetitions of one invocation share the seed.
func scheduled(cfg openloop.Config) (uint64, error) {
	if n, ok := scheduledCache[cfg]; ok {
		return n, nil
	}
	arr, err := openloop.Generate(cfg)
	if err == nil {
		scheduledCache[cfg] = uint64(len(arr))
	}
	return uint64(len(arr)), err
}

var scheduledCache = map[openloop.Config]uint64{}

// fillServe copies a serve record into the repetition.
func fillServe(r *rep, res *harness.ServeResult, scheduled uint64, shards int, durNS uint64) {
	r.virt.Ops, r.virt.Submitted, r.virt.Attempted = res.Completed, res.Submitted, scheduled
	r.virt.VTput = res.OpsPerSec
	r.virt.ThreadNS = uint64(shards) * durNS
	r.virt.Lat, r.virt.Ring, r.virt.Imbalance = res.Latency, res.Ring, res.Imbalance
	if c := res.Crash; c != nil {
		r.virt.Crashed = true
		r.virt.RecoveryNS, r.virt.StallNS, r.virt.Replayed = c.RecoveryVirtualNS, c.StallNS, c.Replayed
		r.virt.LostInflight, r.virt.InFlightResolved = c.LostInflight, c.InFlightResolved
		if c.DuplicatesApplied != nil {
			r.virt.DuplicatesSeen = *c.DuplicatesApplied
		}
	}
}

// gateOpenLoop is the part of the gate every open-loop workload shares:
// every scheduled arrival completed exactly once.
func gateOpenLoop(r *rep) []string {
	var bad []string
	if r.virt.Ops != r.virt.Attempted {
		bad = append(bad, fmt.Sprintf("completed %d of %d scheduled arrivals", r.virt.Ops, r.virt.Attempted))
	}
	// A crash run resubmits part of its in-flight window, so only steady
	// runs submit each arrival exactly once.
	if !r.virt.Crashed && r.virt.Submitted != r.virt.Attempted {
		bad = append(bad, fmt.Sprintf("submitted %d of %d scheduled arrivals", r.virt.Submitted, r.virt.Attempted))
	}
	return bad
}

func gateCheck(what string, c *harness.CheckStats) []string {
	switch {
	case c == nil:
		return []string{what + ": no check block"}
	case !c.OK:
		return []string{fmt.Sprintf("%s: linearize failed in epoch %d (%s): %s", what, c.FailedEpoch, c.FailedPartition, c.Reason)}
	}
	return nil
}

func serveWorkload(name, why string, p serveParams, micro []string) *workload {
	w := &workload{name: name, why: why, contract: true, micro: micro}
	w.open = func(c ctx) openloop.Config { return serveConfig(c, p).Open }
	w.rep = func(c ctx) (*rep, error) {
		cfg := serveConfig(c, p)
		n, err := scheduled(cfg.Open)
		if err != nil {
			return nil, err
		}
		d, err := prepDurable(cfg.Shards)
		if err != nil {
			return nil, err
		}
		pr := newProbe(c)
		pr.preBoot = "openloop.generate"
		res, err := harness.RunServe(pr.driver(d), cfg)
		if err != nil {
			return nil, err
		}
		r := pr.finish(cfg.Open.DurationNS)
		fillServe(r, res, n, cfg.Shards, cfg.Open.DurationNS)
		return r, nil
	}
	w.gate = func(c ctx, r *rep) []string {
		bad := gateOpenLoop(r)
		if p.crashAtNS > 0 {
			v := &r.virt
			if !v.Crashed {
				bad = append(bad, "no crash block")
			}
			if v.StallNS < v.RecoveryNS {
				bad = append(bad, fmt.Sprintf("stall %d ns < recovery %d ns", v.StallNS, v.RecoveryNS))
			}
			if v.DuplicatesSeen != 0 || v.InFlightResolved != v.LostInflight {
				bad = append(bad, fmt.Sprintf("resume not exactly-once: duplicates=%d resolved=%d lost_inflight=%d",
					v.DuplicatesSeen, v.InFlightResolved, v.LostInflight))
			}
		}
		return append(bad, gateTwin(c.seed, p.crashAtNS > 0)...)
	}
	return w
}

// gateTwin runs the checked twin of a serve workload at the CI geometry.
func gateTwin(seed int64, crash bool) []string {
	cfg := twinConfig(seed, crash)
	d, err := prepDurable(cfg.Shards)
	if err != nil {
		return []string{err.Error()}
	}
	res, err := harness.RunServe(d, cfg)
	if err != nil {
		return []string{"checked twin: " + err.Error()}
	}
	bad := gateCheck("checked twin", res.Check)
	if crash {
		c := res.Crash
		switch {
		case c == nil || res.Check == nil:
			bad = append(bad, "checked twin: no crash block")
		case res.Check.Epochs != 2 || c.DuplicatesApplied == nil || *c.DuplicatesApplied != 0 ||
			c.InFlightResolved != c.LostInflight:
			bad = append(bad, fmt.Sprintf("checked twin: epochs=%d resolved=%d lost_inflight=%d",
				res.Check.Epochs, c.InFlightResolved, c.LostInflight))
		}
	}
	return bad
}

// --- deployment: harness.RunShardedServe ---

const (
	shardInstances = 4
	shardWorkers   = 8
)

func shardedConfig(c ctx, instances, jobs int) harness.ShardedServeConfig {
	return harness.ShardedServeConfig{
		Instances: instances, Route: "hash", TotalWorkers: shardWorkers,
		RingSize: serveRing, MaxBatch: serveBatch, Batched: true,
		Seed: c.seed, Jobs: jobs,
		Open: openloop.Config{
			Clients: serveClients, Keys: 4096, KeySkew: 0.9, ReadPct: 0,
			Rate: 1.2e8, DurationNS: c.ns(1_000_000), Seed: c.seed + 1000,
		},
	}
}

// runSharded is one sharded run; pr is nil for the undecorated extras.
func runSharded(cfg harness.ShardedServeConfig, pr *probe) (*harness.ServeResult, error) {
	per := cfg.TotalWorkers / cfg.Instances
	if _, err := prepDurable(per); err != nil {
		return nil, err
	}
	return harness.RunShardedServe(func() *harness.ServeDriver {
		d, _ := prepDurable(per) // cannot fail: it just succeeded
		if pr != nil {
			d = pr.driver(d)
		}
		return d
	}, cfg)
}

func shardedWorkload() *workload {
	w := &workload{
		name: "sharded_steady", contract: true,
		why:   "four independent machines behind the hash router at saturation: partition, slowest-machine denominator, imbalance",
		micro: []string{"sim.step", "nvm.access", "shard.route", "openloop"},
	}
	w.open = func(c ctx) openloop.Config { return shardedConfig(c, shardInstances, 1).Open }
	w.rep = func(c ctx) (*rep, error) {
		cfg := shardedConfig(c, shardInstances, 1)
		n, err := scheduled(cfg.Open)
		if err != nil {
			return nil, err
		}
		pr := newProbe(c)
		pr.preBoot = "openloop.generate"
		res, err := runSharded(cfg, pr)
		if err != nil {
			return nil, err
		}
		r := pr.finish(cfg.Open.DurationNS)
		fillServe(r, res, n, shardWorkers, cfg.Open.DurationNS)
		return r, nil
	}
	w.gate = func(c ctx, r *rep) []string {
		bad := gateOpenLoop(r)
		// Checked twin at ci.yml's sharded steady geometry: the serve twin's
		// population at twice the rate, with the default burst shape.
		open := twinConfig(c.seed, false).Open
		open.Rate, open.BurstEveryNS, open.BurstLenNS = 4e6, 500_000, 100_000
		twin := harness.ShardedServeConfig{
			Instances: shardInstances, Route: "hash", TotalWorkers: 4,
			RingSize: serveRing, MaxBatch: serveBatch, Batched: true,
			Seed: c.seed, Jobs: 1, Check: true, Open: open,
		}
		res, err := runSharded(twin, nil)
		if err != nil {
			return append(bad, "checked twin: "+err.Error())
		}
		bad = append(bad, gateCheck("checked twin", res.Check)...)
		if cs := res.Composition; cs == nil || !cs.OK || cs.MisroutedOps != 0 || cs.ForeignKeys != 0 {
			bad = append(bad, fmt.Sprintf("checked twin: composition %+v", cs))
		}
		return bad
	}
	// The traced pass adds the S=1 run of the same schedule (scaling) and
	// one run at Jobs=2 on two host threads (what par buys).
	w.extras = func(c ctx, r *rep, v values) error {
		s1, err := runSharded(shardedConfig(c, 1, 1), nil)
		if err != nil {
			return err
		}
		if s1.OpsPerSec > 0 {
			v["shard.scaling_vs_s1"] = r.virt.VTput / s1.OpsPerSec
		}
		j2, err := timeJ2(func(jobs int) error {
			_, err := runSharded(shardedConfig(c, shardInstances, jobs), nil)
			return err
		})
		if err != nil {
			return err
		}
		v["par.speedup_j2"] = (r.setupS + r.runS) / j2
		return nil
	}
	return w
}

// --- model checker: explore.Run ---

func exploreWorkload() *workload {
	cfgFor := func(c ctx) explore.Config {
		cfg := explore.Config{System: "prep-durable", Workers: 2, Ops: 3, Depth: 1, Jobs: 1, Seed: c.seed}
		if c.scale < 1 { // the tests' smoke size
			cfg.Ops, cfg.MaxRounds = 2, 2
		}
		return cfg
	}
	w := &workload{
		name:  "explore_small",
		why:   "host clock only: clone, fault.Subset, recovery replays and linearize per leaf; sim/svc throughput is irrelevant",
		micro: []string{"nvm.clone", "nvm.crash_recover", "linearize.check"},
	}
	// One op is one complete bounded exploration. The explorer exposes no
	// machine, so there is no set-up stamp, no counter registry and no
	// virtual clock to read from outside.
	w.rep = func(c ctx) (*rep, error) {
		pr := newProbe(c)
		rp, err := explore.Run(cfgFor(c))
		if err != nil {
			return nil, err
		}
		r := pr.finish(0)
		v := &r.virt
		v.Ops, v.Attempted = 1, 1
		v.Schedules, v.Leaves = rp.Schedules, rp.Leaves
		v.Counterexamples, v.Diverged, v.Truncated = len(rp.Counterexamples), rp.Diverged, rp.Truncated
		v.DPORPruned, v.DPORBranches = rp.DPORPruned, rp.DPORBranches
		return r, nil
	}
	w.gate = func(c ctx, r *rep) []string {
		v := &r.virt
		if v.Counterexamples != 0 || v.Truncated || v.Diverged != 0 || v.DPORPruned == 0 {
			return []string{fmt.Sprintf("explore: counterexamples=%d truncated=%v diverged=%d dpor_pruned=%d",
				v.Counterexamples, v.Truncated, v.Diverged, v.DPORPruned)}
		}
		return nil
	}
	return w
}
