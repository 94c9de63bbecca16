package nvm

import (
	"testing"

	"prepuc/internal/fault"
	"prepuc/internal/sim"
)

// This file pins the flush-elision tentpole: skipping the write-back of a
// clean line (persisted view already equals the current view) must be
// invisible to everything except the cost model and the elision counters.
// The randomized equivalence workload runs under every fault policy with
// elision on and with the reference always-write-back model, and the two
// runs must agree on every persisted word, every crash outcome, and the
// flush-count algebra: each request is either written back or elided, never
// both, never neither.

// TestFlushElisionEquivalence compares elision-on against the reference
// no-elision mode across fault policies and seeds. Under sim.UnitCosts a
// FlushCheck costs the same one step as a FlushLine, so the two modes run
// the exact same schedule and the comparison is word-for-word. The raw
// metrics JSON is deliberately NOT compared: the modes split the same
// requests differently between flush_async and flushes_elided — the
// invariant is the sum, checked explicitly below.
func TestFlushElisionEquivalence(t *testing.T) {
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
				on := equivWorkload(seed, mk(), false)
				off := equivWorkload(seed, mk(), true)

				if on.events != off.events {
					t.Fatalf("seed %d: event counts diverge: elide %v, reference %v", seed, on.events, off.events)
				}
				for _, mn := range []string{"a", "b"} {
					if on.dirty[mn] != off.dirty[mn] {
						t.Fatalf("seed %d: memory %s DirtyLines: elide %d, reference %d", seed, mn, on.dirty[mn], off.dirty[mn])
					}
					ov, fv := on.persisted[mn], off.persisted[mn]
					for w := range ov {
						if ov[w] != fv[w] {
							t.Fatalf("seed %d: memory %s persisted word %d: elide %#x, reference %#x", seed, mn, w, ov[w], fv[w])
						}
					}
				}
				// Reference mode never elides; elision mode conserves the
				// request count, moving clean-line requests out of the
				// write-back tallies one-for-one.
				if off.snap.FlushesElided != 0 || off.snap.FlushElisionChecks != 0 {
					t.Fatalf("seed %d: reference mode counted elision: elided=%d checks=%d",
						seed, off.snap.FlushesElided, off.snap.FlushElisionChecks)
				}
				onTotal := on.snap.FlushAsync + on.snap.FlushSync + on.snap.FlushesElided
				offTotal := off.snap.FlushAsync + off.snap.FlushSync
				if onTotal != offTotal {
					t.Fatalf("seed %d: flush requests not conserved: elide %d+%d+%d=%d, reference %d+%d=%d",
						seed, on.snap.FlushAsync, on.snap.FlushSync, on.snap.FlushesElided, onTotal,
						off.snap.FlushAsync, off.snap.FlushSync, offTotal)
				}
				// The pending sets are identical by construction, so crash
				// materialization must have drawn identical policy verdicts.
				if on.snap.CrashLinesPersisted != off.snap.CrashLinesPersisted ||
					on.snap.CrashLinesDropped != off.snap.CrashLinesDropped {
					t.Fatalf("seed %d: crash fates diverge: elide %d/%d, reference %d/%d",
						seed, on.snap.CrashLinesPersisted, on.snap.CrashLinesDropped,
						off.snap.CrashLinesPersisted, off.snap.CrashLinesDropped)
				}
				if on.snap.Fences != off.snap.Fences {
					t.Fatalf("seed %d: fences diverge: elide %d, reference %d", seed, on.snap.Fences, off.snap.Fences)
				}
			}
		})
	}
}

// TestFlushLineSyncDropsPending pins the satellite fix in both modes: a
// synchronous flush retires the line's own pending entry AND its epoch-dedup
// mark, so the next fence neither double-persists the line nor overcharges
// FencePerPending, while a fresh store later in the same epoch is tracked
// anew.
func TestFlushLineSyncDropsPending(t *testing.T) {
	for _, mode := range []struct {
		name    string
		noElide bool
	}{{"elide", false}, {"reference", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
				sys.SetFlushElision(!mode.noElide)
				m := sys.NewMemory("m", NVM, 0, 64)
				f := sys.NewFlusher()
				m.Store(th, 0, 1)            // line 0
				m.Store(th, WordsPerLine, 2) // line 1
				f.FlushLine(th, m, 0)
				f.FlushLine(th, m, WordsPerLine)
				if got := len(f.pending); got != 2 {
					t.Fatalf("pending = %d after two dirty flushes, want 2", got)
				}
				f.FlushLineSync(th, m, 0)
				if got := len(f.pending); got != 1 {
					t.Fatalf("pending = %d after sync flush, want 1 (stale entry kept)", got)
				}
				if got := m.PersistedLoad(0); got != 1 {
					t.Fatalf("sync-flushed word = %d, want 1", got)
				}
				// Same epoch, fresh store: the dedup mark must be gone so the
				// new value is tracked and the fence persists it.
				m.Store(th, 0, 3)
				f.FlushLine(th, m, 0)
				if got := len(f.pending); got != 2 {
					t.Fatalf("pending = %d after re-store+re-flush, want 2 (dedup mark not dropped)", got)
				}
				f.Fence(th)
				if got := len(f.pending); got != 0 {
					t.Fatalf("pending = %d after fence, want 0", got)
				}
				if got := m.PersistedLoad(0); got != 3 {
					t.Fatalf("word 0 = %d after fence, want 3", got)
				}
				if got := m.PersistedLoad(WordsPerLine); got != 2 {
					t.Fatalf("word %d = %d after fence, want 2", WordsPerLine, got)
				}
			})
		})
	}
}

// TestElisionCleanAndPendingElsewhere pins the two soundness edges of the
// clean-line check. A line flushed on thread-context fa but not yet fenced
// is still *dirty* (its persisted view lags), so a flush through a second
// flusher fb must NOT be elided — fb's caller needs its own fence to cover
// the line, and fa might never fence. Only once some fence actually persists
// the line does a further flush of it become elidable.
func TestElisionCleanAndPendingElsewhere(t *testing.T) {
	runOne(t, Config{}, 0, func(th *sim.Thread, sys *System) {
		m := sys.NewMemory("m", NVM, 0, 64)
		fa, fb := sys.NewFlusher(), sys.NewFlusher()
		m.Store(th, 0, 7)

		base := sys.Metrics().Snapshot()
		fa.FlushLine(th, m, 0)
		if d := sys.Metrics().Snapshot().Sub(base); d.FlushesElided != 0 || d.FlushAsync != 1 {
			t.Fatalf("dirty-line flush: elided=%d async=%d, want 0,1", d.FlushesElided, d.FlushAsync)
		}

		// Pending on fa only — still dirty, so fb's flush is real and tracked.
		base = sys.Metrics().Snapshot()
		fb.FlushLine(th, m, 0)
		if d := sys.Metrics().Snapshot().Sub(base); d.FlushesElided != 0 || d.FlushAsync != 1 {
			t.Fatalf("pending-elsewhere flush: elided=%d async=%d, want 0,1 (must not be elided)", d.FlushesElided, d.FlushAsync)
		}
		if len(fb.pending) != 1 {
			t.Fatalf("fb pending = %d, want 1: fb's fence must cover the line itself", len(fb.pending))
		}

		fa.Fence(th) // persists the line: now genuinely clean
		base = sys.Metrics().Snapshot()
		fb.FlushLine(th, m, 0) // dedup: already tracked this epoch on fb
		fb.Fence(th)
		fb.FlushLine(th, m, 0) // fresh epoch, clean line: elided
		if d := sys.Metrics().Snapshot().Sub(base); d.FlushesElided != 2 || d.FlushAsync != 0 {
			t.Fatalf("clean/deduped flushes: elided=%d async=%d, want 2,0", d.FlushesElided, d.FlushAsync)
		}
		if got := m.PersistedLoad(0); got != 7 {
			t.Fatalf("persisted word = %d, want 7", got)
		}
	})
}
