package harness

import (
	"fmt"
	"io"

	"prepuc/internal/core"
	"prepuc/internal/nvm"
	"prepuc/internal/onll"
	"prepuc/internal/par"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// RecoveryPoint is one measurement of the recovery-time extension
// experiment: how long (in virtual time) recovery takes after a crash, as a
// function of the persistence design.
type RecoveryPoint struct {
	System     string `json:"system"`
	Param      string `json:"param"` // ε for PREP, history length for ONLL
	UpdatesRun uint64 `json:"updates_run"`
	Replayed   uint64 `json:"replayed"`
	VirtualNS  uint64 `json:"recovery_virtual_ns"`
	// Restarts counts partially built generations the (re-entrant) recovery
	// skipped; Holes counts not-fully-persisted log entries below the
	// completed tail it stepped over. Both are zero on a clean single crash.
	Restarts uint64 `json:"recovery_restarts"`
	Holes    uint64 `json:"replay_holes"`
}

// RunRecoveryExperiment contrasts checkpoint-based recovery (PREP-Durable:
// replay at most one ε window on top of the stable replica) with log-only
// recovery (ONLL: replay the entire history). The paper motivates PREP-UC's
// persistent replicas precisely as the device that keeps the log — and
// hence recovery — finite (§4.1); this experiment quantifies it. Every cell
// is an independent run-then-crash-then-recover simulation, so up to jobs
// cells run concurrently with points and progress kept in cell order.
func RunRecoveryExperiment(sc Scale, seed int64, jobs int, w io.Writer) ([]RecoveryPoint, error) {
	// Both systems run 8 workers around a 1024-bucket hashmap in a 4M-word
	// heap; PREP-Durable varies ε over a fixed 4000 updates, ONLL varies the
	// history length with logs sized to hold all of it.
	sz := sc.sizing(8, seq.HashMapType(1024), 1<<22)
	var run []func() (RecoveryPoint, error)
	for _, eps := range sc.EpsSweep {
		sz := sz
		sz.Epsilon = eps
		run = append(run, func() (RecoveryPoint, error) {
			d := core.NewDriver(core.ConfigFor(core.Durable, sz))
			return recoveryPoint(sc, d, sz, fmt.Sprintf("e=%d", sz.Epsilon), 4000, seed)
		})
	}
	for _, hist := range []uint64{1000, 2000, 4000, 8000} {
		sz, hist := sz, hist
		sz.ONLLLogEntries = hist + 64
		run = append(run, func() (RecoveryPoint, error) {
			d := onll.NewDriver(onll.ConfigFor(sz))
			return recoveryPoint(sc, d, sz, fmt.Sprintf("hist=%d", hist), hist, seed)
		})
	}

	points := make([]RecoveryPoint, len(run))
	errs := make([]error, len(run))
	var seqOut par.Seq
	par.Do(par.Jobs(jobs), len(run), func(i int) {
		pt, err := run[i]()
		points[i], errs[i] = pt, err
		seqOut.Done(i, func() {
			if w == nil || err != nil {
				return
			}
			fmt.Fprintf(w, "  %-14s %-10s replayed=%-6d recovery=%.3fms(virtual)\n",
				pt.System, pt.Param, pt.Replayed, float64(pt.VirtualNS)/1e6)
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// recoveryPoint runs updates disjoint inserts through d's construction,
// crashes the quiescent machine, and measures recovery. seed is the
// substrate's: the three phases draw nothing else.
func recoveryPoint(sc Scale, d *uc.Driver, sz uc.Sizing, param string, updates uint64, seed int64) (RecoveryPoint, error) {
	m, err := BootMachine(sz.Topology,
		nvm.Config{Costs: sc.Costs, Seed: uint64(seed)}, d)
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: %s %s: build: %w", d.Name, param, err)
	}
	if _, err := m.Run(0, sz.Workers, func(t *sim.Thread, _, tid int) {
		for i := uint64(0); i < updates/uint64(sz.Workers); i++ {
			m.Engines[0].Execute(t, tid, uc.Insert(uint64(tid)<<32|i, i))
		}
	}); err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: %s %s: run: %w", d.Name, param, err)
	}
	rec, err := m.Recover(nil, nil)
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: %s %s: recover: %w", d.Name, param, err)
	}
	ms := m.Sys.Metrics().Snapshot()
	return RecoveryPoint{
		System: d.Name, Param: param,
		UpdatesRun: updates, Replayed: rec.Replayed[0], VirtualNS: rec.VirtualNS,
		Restarts: ms.RecoveryRestarts, Holes: ms.ReplayHoles,
	}, nil
}
