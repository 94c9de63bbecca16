package harness

import (
	"fmt"
	"testing"

	"prepuc/internal/explore"
)

// TestExploreSubsumesStrideSweep cross-validates the explorer's crash-class
// pruning against the brute-force alternative it replaced: a stride sweep
// that crashes the root schedule at every stride-th event and materializes
// each crash with the substrate's fair-coin policy. The pruning argument says
// crashing anywhere between two persist-relevant dispatches yields the same
// crash image as the class representative, and the coin's drawn subset is one
// of the explorer's exhaustively enumerated persist masks — so every
// fingerprint the sweep can produce must already be in the explorer's leaf
// set. Strictness cuts the other way: the explorer branches over masks the
// coin did not draw and schedules the sweep never runs, so its set must be
// strictly larger. A missed persist-effect hook or a wrong class boundary
// breaks the subset direction; an explorer that stopped branching breaks
// strictness.
func TestExploreSubsumesStrideSweep(t *testing.T) {
	cfg := explore.Config{System: "prep-durable", Workers: 2, Ops: 3, MaxRounds: 2}

	rep, err := explore.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 0 {
		t.Fatalf("explorer found %d counterexamples", len(rep.Counterexamples))
	}
	if rep.Truncated {
		t.Fatal("explorer truncated: the subset argument needs uncapped masks")
	}
	leafSet := make(map[string]bool, len(rep.Fingerprints))
	for _, fp := range rep.Fingerprints {
		leafSet[fp] = true
	}

	// Stride 3 keeps the sweep to a few hundred whole-machine replays while
	// still landing inside many distinct crash classes; the quiescent point
	// is always included.
	fps, err := explore.StrideSweep(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	sweepSet := map[string]bool{}
	for _, fp := range fps {
		sweepSet[fmt.Sprintf("%016x", fp)] = true
	}

	for fp := range sweepSet {
		if !leafSet[fp] {
			t.Errorf("stride-sweep fingerprint %s not among the explorer's %d leaf states:"+
				" crash-class pruning or a persist-effect hook is unsound", fp, len(leafSet))
		}
	}
	if len(sweepSet) >= len(leafSet) {
		t.Errorf("subset not strict: sweep %d states vs explorer %d — "+
			"the explorer is not branching beyond the sweep", len(sweepSet), len(leafSet))
	}
	t.Logf("stride sweep: %d points, %d distinct states; explorer: %d distinct states",
		len(fps), len(sweepSet), len(leafSet))
}
