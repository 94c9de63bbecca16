package main

// The -sweep mode: a stride sweep of nested crash points INSIDE one
// recovery, materialized with COW clones instead of re-running the workload
// per point. One machine boots, runs the insert workload to a crash, and is
// materialized once; every swept point then clones that base (O(pages
// touched), thanks to the copy-on-write substrate), arms a crash at
// k*stride recovery events, recovers through the nested crash and checks
// the final state. The per-sweep timing summary (wall_ms, clones,
// pages_copied) lands in the prepuc-crash/v2 document as an additive
// "sweep" block; wall_ms is host time and therefore nondeterministic, which
// is why the mode is off by default and absent from the golden documents.

import (
	"fmt"
	"io"
	"time"

	"prepuc/internal/drivers"
	"prepuc/internal/history"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// sweepTiming is what the sweep cost on the host: wall-clock plus the COW
// substrate's work counters (clones taken, pages privatized on write).
type sweepTiming struct {
	WallMS      float64 `json:"wall_ms"`
	Clones      uint64  `json:"clones"`
	PagesCopied uint64  `json:"pages_copied"`
}

// sweepBlock is one system's nested-recovery sweep record (additive to
// schema v2; present only with -sweep > 0).
type sweepBlock struct {
	// Points is the number of swept nested crash points, Stride the event
	// distance between them, RecoveryEvents the unperturbed recovery's event
	// count (the sweep ceiling, measured on a clone).
	Points         int    `json:"points"`
	Stride         uint64 `json:"stride"`
	RecoveryEvents uint64 `json:"recovery_events"`
	// NestedCrashes counts the points whose armed crash actually landed
	// inside recovery; Failures the points whose final recovered state
	// violated the system's correctness condition.
	NestedCrashes int         `json:"nested_crashes"`
	Failures      int         `json:"failures"`
	Timing        sweepTiming `json:"timing"`
}

// recoverClone runs d.Recover on a copy-on-write clone of the materialized
// crashed machine, with a crash armed inside the recovery at event at (0:
// none). It returns the clone, its scheduler (Frozen when the armed crash
// landed) and the rebuilt engine.
func recoverClone(d *uc.Driver, crashed *nvm.System, seed int64, at uint64) (*nvm.System, *sim.Scheduler, uc.UC, error) {
	sch := sim.New(seed)
	clone := crashed.Clone(sch)
	if at != 0 {
		sch.CrashAtEvent(at)
	}
	var eng uc.UC
	var err error
	sch.Spawn("recover", 0, 0, func(t *sim.Thread) { eng, _, err = d.Recover(t, clone) })
	sch.Run()
	return clone, sch, eng, err
}

// runSweep executes one system's nested-recovery crash sweep. It runs
// serially — one driver recovers every clone in turn — so point k's verdict
// and the fault policy's decision stream are functions of the seed alone,
// and everything in the block except wall_ms is deterministic. A boot or
// recovery that answers with an error fails the sweep (or the point) and is
// reported with the sweep's repro.
func runSweep(progress io.Writer, tg target) *sweepBlock {
	start := time.Now()
	d := tg.New(sizing())
	base := *seed + 909 + tg.offset
	sb := &sweepBlock{Points: *sweepN, Stride: *sweepStride}
	fail := func(what string, err error) {
		sb.Failures++
		fmt.Fprintf(progress, "  sweep: %s: %v\n", what, err)
		pins := []string{fmt.Sprintf("-sweep=%d", sb.Points), fmt.Sprintf("-sweep-stride=%d", sb.Stride)}
		if *crashAtFlg != 0 {
			pins = append(pins, fmt.Sprintf("-crash-at=%d", *crashAtFlg))
		}
		reproLine(progress, tg, 0, 0, pins...)
	}

	sys, completed, err := crashedMachine(d, base, 0, crashEvent(0))
	if err != nil {
		fail("base machine", err)
		return sb
	}

	// Materialize the crashed machine once; it is the shared base every
	// swept point clones. Snapshot its substrate counters so the sweep
	// reports only its own clone/copy work.
	crashed := sys.Recover(sim.New(base + 2))
	before := crashed.Metrics().Snapshot()

	// Ceiling probe: recover a clone to completion with no crash armed to
	// learn how many events an undisturbed recovery takes.
	probe, probeSch, _, err := recoverClone(d, crashed, base+3, 0)
	if err != nil {
		fail("ceiling probe: recover", err)
		return sb
	}
	sb.RecoveryEvents = probeSch.Events()
	if sb.Stride == 0 {
		sb.Stride = sb.RecoveryEvents / uint64(*sweepN+1)
		if sb.Stride == 0 {
			sb.Stride = 1
		}
	}
	var pagesCopied uint64
	for k := 1; k <= *sweepN; k++ {
		at := sb.Stride * uint64(k)
		cur, trialSch, eng, terr := recoverClone(d, crashed, base+4+int64(k)*13, at)
		if trialSch.Frozen() {
			// The armed crash landed inside recovery: materialize it and
			// recover the re-crashed machine to completion.
			sb.NestedCrashes++
			var rec drivers.Recovery
			rec, terr = drivers.Recover(d, cur, base+5+int64(k)*13, nil, nil)
			cur, eng = rec.Sys, rec.Eng
		}
		if terr != nil {
			fail(fmt.Sprintf("point %d @%d: recover", k, at), terr)
		} else if keys := probeKeys(cur, base+1000+int64(k)*13, completed, eng); !reportOK(d, history.Check(keys, completed)) {
			sb.Failures++
		}
		pagesCopied += cur.Metrics().Snapshot().PagesCopied - before.PagesCopied
	}

	after := crashed.Metrics().Snapshot()
	sb.Timing = sweepTiming{
		WallMS:      float64(time.Since(start).Microseconds()) / 1e3,
		Clones:      after.Clones - before.Clones,
		PagesCopied: pagesCopied + probe.Metrics().Snapshot().PagesCopied - before.PagesCopied,
	}
	fmt.Fprintf(progress, "  sweep: %d points stride=%d ceiling=%d nested=%d failures=%d clones=%d pages_copied=%d wall=%.1fms\n",
		sb.Points, sb.Stride, sb.RecoveryEvents, sb.NestedCrashes, sb.Failures,
		sb.Timing.Clones, sb.Timing.PagesCopied, sb.Timing.WallMS)
	return sb
}
