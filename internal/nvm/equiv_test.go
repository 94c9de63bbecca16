package nvm

import (
	"encoding/json"
	"testing"

	"prepuc/internal/fault"
	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// This file pins the tentpole equivalence claim: the dirty-line list drives
// WBINVD, FlushAllDirty and DirtyLines over only the lines dirtied since the
// last sweep, in list order rather than index order — and that must be
// indistinguishable from the reference full-bitmap scan. A randomized
// workload (stores, CASes, flushes, fences, bulk sweeps, background flushes)
// runs to a crash and through recovery twice per fault policy, once per
// strategy, and everything observable must match: every persisted word, the
// virtual event count, and the full metrics snapshot. A phase between the
// last recovery and the final sweep persists many distinct lines one by one,
// before and after a Clone, so the list is compacted (compactDirty) in both
// strategies, on pages of its own and on pages shared with the parent.

// equivResult is everything observable about one workload run.
type equivResult struct {
	events    [5]uint64 // per-phase scheduler event counts
	persisted map[string][]uint64
	dirty     map[string]uint64
	metrics   string           // JSON-marshaled snapshot (wire-format counters)
	snap      metrics.Snapshot // raw snapshot for cross-mode counter algebra
	// listed is the dirty list's longest length in the compaction phase,
	// enrolled the appends it made there: listed < enrolled shows that
	// compaction ran.
	listed, enrolled int
}

// equivWorkload drives a mixed randomized workload on two NVM memories and
// one volatile memory to an armed crash, recovers, runs a second phase on
// the recovered machine, crashes and recovers again (so stateful policies
// see multiple crashes), and returns the observable outcome. noElide selects
// the reference always-write-back flush cost model over FliT-style elision.
func equivWorkload(seed uint64, policy fault.Policy, noElide bool) equivResult {
	const (
		memWordsA = 4096
		memWordsB = 1024
	)
	res := equivResult{persisted: map[string][]uint64{}, dirty: map[string]uint64{}}

	sch := sim.New(int64(seed))
	sys := NewSystem(sch, Config{Costs: sim.UnitCosts(), BGFlushOneIn: 32, Seed: seed})
	sys.SetFlushElision(!noElide)
	sys.SetFaultPolicy(policy)
	a := sys.NewMemory("a", NVM, 0, memWordsA)
	b := sys.NewMemory("b", NVM, 0, memWordsB)
	v := sys.NewMemory("v", Volatile, 0, 512)

	phase := func(crashAt uint64, threads int) {
		sch.CrashAtEvent(crashAt)
		for tid := 0; tid < threads; tid++ {
			tid := tid
			rng := seed*0x9E37_79B9_7F4A_7C15 + uint64(tid) | 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			sch.Spawn("w", tid%2, 0, func(t *sim.Thread) {
				f := sys.NewFlusher()
				for {
					m := a
					if next()%3 == 0 {
						m = b
					}
					off := next() % m.Words()
					switch next() % 16 {
					case 0, 1, 2, 3, 4, 5:
						m.Store(t, off, next())
					case 6, 7:
						m.CAS(t, off, m.Load(t, off), next())
					case 8, 9:
						_ = m.Load(t, off)
						_ = v.Load(t, off%v.Words())
					case 10, 11:
						f.FlushLine(t, m, off)
					case 12:
						f.Fence(t)
					case 13:
						f.FlushLineSync(t, m, off)
					case 14:
						if next()%4 == 0 {
							m.FlushAllDirty(t)
						} else {
							from := off &^ (WordsPerLine - 1)
							m.FlushRegion(t, from, from+4*WordsPerLine)
						}
					case 15:
						if next()%8 == 0 {
							sys.WBINVD(t, a, b)
						} else {
							v.Store(t, off%v.Words(), next())
						}
					}
				}
			})
		}
		sch.Run()
	}

	phase(5_000, 2)
	res.events[0] = sch.Events()

	sch = sim.New(int64(seed) + 100)
	sys = sys.Recover(sch)
	a, b = sys.Memory("a"), sys.Memory("b")
	v = sys.NewMemory("v", Volatile, 0, 512)
	phase(3_000, 2)
	res.events[1] = sch.Events()

	// The compaction phase: a's lines are stored in a scattered order and
	// each is persisted by FlushLine+Fence or FlushLineSync (every fifth is
	// left dirty), so appends keep finding the list full of stale entries.
	// No sweep runs until the final pass.
	persistOneByOne := func(from, to uint64) {
		sch.Spawn("compact", 0, 0, func(t *sim.Thread) {
			f := sys.NewFlusher()
			for i := from; i < to; i++ {
				off := (i * 97 % (memWordsA / WordsPerLine)) * WordsPerLine
				st := a.dstate.load(off / WordsPerLine)
				a.Store(t, off, i)
				if st&lineListed == 0 {
					res.enrolled++
				}
				switch {
				case i%5 == 0:
				case i%2 == 0:
					f.FlushLine(t, a, off)
					f.Fence(t)
				default:
					f.FlushLineSync(t, a, off)
				}
				if i%7 == 0 {
					b.Store(t, i%b.Words(), i)
				}
				res.listed = max(res.listed, len(a.dirtyList))
			}
		})
		sch.Run()
	}
	sch = sim.New(int64(seed) + 200)
	sys = sys.Recover(sch)
	a, b = sys.Memory("a"), sys.Memory("b")
	persistOneByOne(0, 1024)
	res.events[2] = sch.Events()

	sch = sim.New(int64(seed) + 300)
	sys = sys.Clone(sch)
	a, b = sys.Memory("a"), sys.Memory("b")
	persistOneByOne(1024, 2048)
	res.events[3] = sch.Events()

	sch = sim.New(int64(seed) + 400)
	sys.SetScheduler(sch)
	// A drained final pass sweeps what remains so the sweep machinery runs
	// once more on post-recovery dirty state.
	sch.Spawn("final", 0, 0, func(t *sim.Thread) {
		for i := uint64(0); i < 64; i++ {
			a.Store(t, (i*17)%a.Words(), i)
			b.Store(t, (i*13)%b.Words(), i)
		}
		res.dirty["a"] = a.DirtyLines()
		res.dirty["b"] = b.DirtyLines()
		sys.WBINVD(t, a, b)
	})
	sch.Run()
	res.events[4] = sch.Events()

	for _, m := range []*Memory{a, b} {
		view := make([]uint64, m.Words())
		for w := uint64(0); w < m.Words(); w++ {
			view[w] = m.PersistedLoad(w)
		}
		res.persisted[m.Name()] = view
	}
	// The marshalled snapshot is every counter there is, the host-side
	// substrate ones (clones, pages_copied, lines_scanned_at_crash) included:
	// the two dirty-tracking strategies agree on all of them, none is excluded.
	res.snap = sys.Metrics().Snapshot()
	js, err := json.Marshal(res.snap)
	if err != nil {
		panic(err)
	}
	res.metrics = string(js)
	return res
}

// TestDirtyListEquivalence runs the randomized workload under every fault
// policy with the dirty-list strategy and with the reference full scan, and
// requires bit-identical outcomes.
func TestDirtyListEquivalence(t *testing.T) {
	policies := map[string]func() fault.Policy{
		"nil":        func() fault.Policy { return nil },
		"persistall": func() fault.Policy { return fault.PersistAll() },
		"dropall":    func() fault.Policy { return fault.DropAll() },
		"coinflip":   func() fault.Policy { return fault.CoinFlip(0.5, 99) },
		"targeted":   func() fault.Policy { return fault.Targeted(0) },
	}
	for name, mk := range policies {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				// Fresh policy per run: stateful policies must see the same
				// crash sequence in both strategies.
				debugFullScan = false
				list := equivWorkload(seed, mk(), false)
				debugFullScan = true
				full := equivWorkload(seed, mk(), false)
				debugFullScan = false

				if list.listed >= list.enrolled || list.listed != full.listed {
					t.Fatalf("seed %d: compaction phase: longest dirty list %d / %d (list / full scan) for %d enrolments",
						seed, list.listed, full.listed, list.enrolled)
				}
				if list.events != full.events {
					t.Fatalf("seed %d: event counts diverge: list %v, full scan %v", seed, list.events, full.events)
				}
				if list.metrics != full.metrics {
					t.Fatalf("seed %d: metrics diverge:\nlist: %s\nfull: %s", seed, list.metrics, full.metrics)
				}
				for _, mn := range []string{"a", "b"} {
					if list.dirty[mn] != full.dirty[mn] {
						t.Fatalf("seed %d: memory %s DirtyLines: list %d, full scan %d", seed, mn, list.dirty[mn], full.dirty[mn])
					}
					lv, fv := list.persisted[mn], full.persisted[mn]
					for w := range lv {
						if lv[w] != fv[w] {
							t.Fatalf("seed %d: memory %s persisted word %d: list %#x, full scan %#x", seed, mn, w, lv[w], fv[w])
						}
					}
				}
			}
		})
	}
}

// TestRecoverShortCircuitsEmptyPending pins the satellite fix: with no
// flushed-but-unfenced lines at the crash, materialization examines zero
// lines (lines_scanned_at_crash stays 0) — but a stateful policy still
// observes the crash, so its sweep state advances exactly as before.
func TestRecoverShortCircuitsEmptyPending(t *testing.T) {
	run := func(policy fault.Policy, fenceBeforeCrash bool) (*System, uint64) {
		sch := sim.New(7)
		sys := NewSystem(sch, Config{Costs: sim.UnitCosts(), Seed: 7})
		sys.SetFaultPolicy(policy)
		m := sys.NewMemory("m", NVM, 0, 64*WordsPerLine)
		sch.Spawn("w", 0, 0, func(t *sim.Thread) {
			f := sys.NewFlusher()
			for i := uint64(0); i < 8; i++ {
				m.Store(t, i*WordsPerLine, i+1)
				f.FlushLine(t, m, i*WordsPerLine)
			}
			if fenceBeforeCrash {
				f.Fence(t)
			}
			sys.sch.CrashNow()
		})
		sch.Run()
		rec := sys.Recover(sim.New(8))
		return rec, rec.Metrics().Snapshot().LinesScannedAtCrash
	}

	if _, scanned := run(fault.DropAll(), true); scanned != 0 {
		t.Errorf("empty pending set: scanned %d lines at crash, want 0", scanned)
	}
	if _, scanned := run(fault.DropAll(), false); scanned != 8 {
		t.Errorf("8 pending lines: scanned %d at crash, want 8", scanned)
	}

	// Targeted's drop index advances on every crash, pending or not: a
	// lineage with an interposed empty crash must drop a different line at
	// the next real crash than a lineage without one.
	recA, _ := run(fault.Targeted(0), true) // crash 0: empty pending
	// Crash the recovered machine again, now with pending lines; the drop
	// index must reflect that this is the policy's SECOND crash.
	var m *Memory
	sch := sim.New(9)
	recA.SetScheduler(sch)
	m = recA.Memory("m")
	sch.Spawn("w", 0, 0, func(t *sim.Thread) {
		f := recA.NewFlusher()
		for i := uint64(0); i < 3; i++ {
			m.Store(t, i*WordsPerLine, 100+i)
			f.FlushLine(t, m, i*WordsPerLine)
		}
		recA.sch.CrashNow()
	})
	sch.Run()
	recB := recA.Recover(sim.New(10))
	mb := recB.Memory("m")
	// Targeted(0): crash 0 (empty) consumed sweep index 0, so crash 1 drops
	// pending index 1%3 == 1 — word at line 1 keeps its pre-store value.
	if got := mb.PersistedLoad(0 * WordsPerLine); got != 100 {
		t.Errorf("line 0 = %d, want 100 (persisted)", got)
	}
	if got := mb.PersistedLoad(1 * WordsPerLine); got == 101 {
		t.Errorf("line 1 = %d: dropped index did not advance past the empty crash", got)
	}
	if got := mb.PersistedLoad(2 * WordsPerLine); got != 102 {
		t.Errorf("line 2 = %d, want 102 (persisted)", got)
	}
}
