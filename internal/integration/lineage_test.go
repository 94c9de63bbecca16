package integration

import (
	"fmt"
	"strings"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/fault"
	"prepuc/internal/harness"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// exploreDriver builds e at the explorer's machine: small enough that
// PersistedFingerprint's O(words) walk is free. Detect is on, so the PREP
// drivers carry their descriptor table through recovery.
func exploreDriver(e drivers.Entry, workers int) *uc.Driver {
	sz := drivers.ExploreScale()
	sz.Topology, sz.Workers, sz.Detect = topo(), workers, true
	return e.New(sz)
}

// insertSome runs workers inserting per of their keys each into the crash
// armed at crashAt (0: the workload completes).
func insertSome(t *testing.T, m *harness.Machine, crashAt uint64, workers int, per uint64) *sim.Scheduler {
	t.Helper()
	sch, err := m.Run(crashAt, workers, func(th *sim.Thread, _, tid int) {
		for i := uint64(0); i < per; i++ {
			m.Engines[0].Execute(th, tid, uc.Insert(harness.FlatKey(0, tid, i), i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestRecoveryFingerprintsPinned pins what a recovery leaves on the media —
// the name, size, creation order and persisted contents of every NVM region
// (nvm.System.PersistedFingerprint) — after the first and after an immediate
// second recovery of every recoverable construction. The constants were
// recorded by running this file against the commit before the generation
// lineage moved into internal/uc: region naming, the commit record and the
// free-generation rule may be restated, never moved. ONLL's pair was
// re-recorded when its recovery began re-logging each operation under the
// worker that logged it instead of worker 0.
func TestRecoveryFingerprintsPinned(t *testing.T) {
	want := map[string][2]uint64{
		"PREP-Durable":  {0x410ee6e560c9cca5, 0x898ed13c9f1044f0},
		"PREP-Buffered": {0x8c0c38612f911034, 0xa4bcfae39da7594e},
		"CX-PUC":        {0xaab8cd70fe63e33d, 0x0d7bb3f542251b3d},
		"SOFT":          {0xa90f2bddb7680245, 0xd456349c4eea867d},
		"ONLL":          {0xd140300fcbc2dd05, 0xf6dc86fcec664a89},
	}
	const workers = 2
	for _, e := range drivers.Recoverable() {
		t.Run(e.Name, func(t *testing.T) {
			m := bootUnit(t, exploreDriver(e, workers), 64, 53)
			m.Sys.SetFaultPolicy(fault.DropAll())
			if sch := insertSome(t, m, 1500, workers, 24); !sch.Frozen() {
				t.Fatal("workload finished before the crash; lower crashAt")
			}
			var got [2]uint64
			for i := range got {
				recoverOnce(t, m)
				got[i] = m.Sys.PersistedFingerprint()
			}
			if got != want[e.Name] {
				t.Errorf("fingerprints after recovery 1, 2 = {%#x, %#x}, pinned {%#x, %#x}",
					got[0], got[1], want[e.Name][0], want[e.Name][1])
			}
		})
	}
}

// commitRecords names each recoverable construction's generation-commit
// record; the two PREP modes are one lineage (same region names).
var commitRecords = map[string]string{
	"prep-durable": "prep.commit", "prep-buffered": "prep.commit",
	"cx": "cx.commit", "soft": "soft.commit", "onll": "onll.commit",
}

// TestForeignOrHeadlessImageIsAnError hands every recoverable construction
// the crashed machine of every other one, and — on the diagonal — its own
// machine with a persisted commit record naming a generation that was never
// built. A recovery pointed at an image it cannot have written answers with
// an error naming the lineage and the generation it could not find; it does
// not panic on the first region it looks up. (An image of the right lineage
// but the wrong shape — PREP's other mode, another worker count, torn words —
// is ROADMAP item 5(a)'s fuzzing.)
func TestForeignOrHeadlessImageIsAnError(t *testing.T) {
	const workers = 2
	for _, a := range drivers.Recoverable() {
		for _, b := range drivers.Recoverable() {
			if a.Flag != b.Flag && commitRecords[a.Flag] == commitRecords[b.Flag] {
				continue
			}
			t.Run(a.Flag+"→"+b.Flag, func(t *testing.T) {
				m := bootUnit(t, exploreDriver(a, workers), 64, 63)
				insertSome(t, m, 0, workers, 4)
				missing := 0
				if a.Flag == b.Flag {
					missing = 7
					if err := drivers.Probe(m.Sys, func(th *sim.Thread) {
						cell := m.Sys.Memory(commitRecords[a.Flag])
						cell.Store(th, 0, uint64(missing)+1)
						m.Sys.NewFlusher().FlushLineSync(th, cell, 0)
					}); err != nil {
						t.Fatalf("forging the commit record: %v", err)
					}
				}
				_, err := drivers.Recover(exploreDriver(b, workers), m.Sys, nil, nil)
				if err == nil {
					t.Fatal("recovery succeeded")
				}
				for _, part := range []string{
					fmt.Sprintf("%q", commitRecords[b.Flag]), fmt.Sprintf("generation %d", missing),
				} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("error %q does not name %s", err, part)
					}
				}
			})
		}
	}
}
