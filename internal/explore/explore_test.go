package explore

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
)

// TestExploreSmallAllSystems is the tentpole acceptance run: for every
// construction, exhaustively explore the 2-worker / 3-op configuration within
// the declared bounds (DPOR delay bound 3, depth 1, all crash classes, all
// persist masks). Every leaf must adjudicate clean, the DPOR reduction must
// actually prune commuting branches, and no forced prefix may diverge.
func TestExploreSmallAllSystems(t *testing.T) {
	for _, e := range drivers.Recoverable() {
		sys := e.Flag
		t.Run(sys, func(t *testing.T) {
			cfg := Config{System: sys, Workers: 2, Ops: 3}
			if sys == "prep-buffered" {
				// The persistence thread checkpoints once the completed tail
				// reaches the flush boundary; at the default ε=8 a 3-op
				// workload never gets there and every crash image is the boot
				// image. ε=2 puts checkpoint cycles (the WBINVD / replica-swap
				// crash windows) inside the explored workload.
				cfg.Epsilon = 2
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Counterexamples) != 0 {
				ce := rep.Counterexamples[0]
				t.Fatalf("%d counterexamples; first: phase=%s reason=%q\nrepro: %s",
					len(rep.Counterexamples), ce.Phase, ce.Reason, ce.Repro)
			}
			if rep.Schedules < 2 {
				t.Errorf("schedules = %d, want >= 2 (DPOR found no interleavings?)", rep.Schedules)
			}
			if rep.DPORPruned == 0 {
				t.Error("DPOR pruned nothing: the reduction is not engaging")
			}
			if rep.Diverged != 0 {
				t.Errorf("diverged = %d, want 0: a mined prefix named a non-candidate", rep.Diverged)
			}
			if rep.CrashBranches == 0 || rep.Leaves <= rep.Schedules {
				t.Errorf("crash space unexplored: crash=%d leaves=%d schedules=%d",
					rep.CrashBranches, rep.Leaves, rep.Schedules)
			}
			if rep.Truncated {
				t.Error("report truncated: a coverage cap bit at explorer scale")
			}
			if rep.DistinctStates < 2 {
				t.Errorf("distinct states = %d, want >= 2 (crash images all identical?)",
					rep.DistinctStates)
			}
			if rep.Schema != Schema || len(rep.Fingerprints) != rep.DistinctStates {
				t.Errorf("schema %q with %d fingerprints for %d distinct states",
					rep.Schema, len(rep.Fingerprints), rep.DistinctStates)
			}
			t.Logf("%s: %d schedules, %d crash branches, %d leaves, %d states, pruned %d, wall %.0fms",
				sys, rep.Schedules, rep.CrashBranches, rep.Leaves,
				rep.DistinctStates, rep.DPORPruned, rep.WallMS)
		})
	}
}

// TestExploreJobsInvariant pins the determinism contract: the JSON report is
// byte-identical for -j 1 and -j 8 once the sole wall-time field is zeroed.
func TestExploreJobsInvariant(t *testing.T) {
	run := func(jobs int) []byte {
		rep, err := Run(Config{System: "prep-durable", Workers: 2, Ops: 3,
			MaxRounds: 2, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		rep.WallMS = 0
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(1), run(8)
	if !bytes.Equal(a, b) {
		t.Fatalf("-j 1 and -j 8 reports differ:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", a, b)
	}
}

// TestExploreDetect runs the detectable-execution adjudication path: crash-cut
// operations must resolve to InFlightCommitted/InFlightNever from the
// recovery's verdict map with zero counterexamples.
func TestExploreDetect(t *testing.T) {
	rep, err := Run(Config{System: "prep-durable", Workers: 2, Ops: 3,
		MaxRounds: 2, Detect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 0 {
		ce := rep.Counterexamples[0]
		t.Fatalf("detect mode: %d counterexamples; first: %q\nrepro: %s",
			len(rep.Counterexamples), ce.Reason, ce.Repro)
	}
	if !rep.Detect {
		t.Error("report does not record detect mode")
	}
}

// TestExploreDepth2 checks that depth 2 actually reaches nested leaves:
// crashes armed inside recovery runs must fire, and their re-recoveries must
// adjudicate clean.
func TestExploreDepth2(t *testing.T) {
	rep, err := Run(Config{System: "prep-durable", Workers: 2, Ops: 2,
		MaxRounds: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) != 0 {
		ce := rep.Counterexamples[0]
		t.Fatalf("depth 2: %d counterexamples; first: %q\nrepro: %s",
			len(rep.Counterexamples), ce.Reason, ce.Repro)
	}
	if rep.NestedBranches == 0 || rep.MaxDepth != 2 {
		t.Errorf("nested space unexplored: nested=%d maxDepth=%d",
			rep.NestedBranches, rep.MaxDepth)
	}
}

// mutationCfg is the explorer configuration that catches the pre-PR-2
// in-place-replay recovery bug: background write-backs make replay-time
// stores crash-branch points, prefilled state gives replay something to
// corrupt, and depth 2 crashes the recovery mid-replay. MaxRunEvents is
// tightened because the bug's signature is a recovery that never quiesces —
// each hung leaf burns the full event guard.
func mutationCfg() Config {
	return Config{System: "prep-durable", Workers: 2, Ops: 3,
		MaxRounds: 1, Depth: 2, BGFlushOneIn: 2, PrefillN: 2,
		MaxRunEvents: 200_000}
}

// TestExploreCatchesInPlaceReplayMutation reintroduces the historical
// recovery bug (replaying the log into the crashed heap in place instead of
// into a private clone) behind core.DebugInPlaceReplay and requires the
// explorer to find it, every counterexample replayable. The same
// configuration with the mutation off must be clean — the bug is only
// visible to systematic crash exploration, which is the point of the
// explorer.
func TestExploreCatchesInPlaceReplayMutation(t *testing.T) {
	clean, err := Run(mutationCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Counterexamples) != 0 {
		t.Fatalf("control run (mutation off) found %d counterexamples; first: %q",
			len(clean.Counterexamples), clean.Counterexamples[0].Reason)
	}

	core.DebugInPlaceReplay = true
	defer func() { core.DebugInPlaceReplay = false }()
	rep, err := Run(mutationCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) == 0 {
		t.Fatal("explorer missed the in-place-replay mutation")
	}
	ce := rep.Counterexamples[0]
	t.Logf("caught: phase=%s crash=%d mask=%s nested=%d reason=%q",
		ce.Phase, ce.CrashAt, ce.Mask, ce.NestedAt, ce.Reason)
	t.Logf("repro: %s", ce.Repro)

	// Every counterexample must replay: its Repro line, parsed through
	// prepexplore's flag set, names a run and a leaf that re-fail with the
	// mutation still armed, for the same reason and under the same repro line
	// — Repro evaluates a leaf with the code Run found it with.
	for i, c := range rep.Counterexamples {
		cfg, lf := parseRepro(t, c.Repro)
		res, rce, err := Repro(cfg, lf)
		if err != nil {
			t.Fatalf("counterexample %d: replay errored: %v", i, err)
		}
		if res.OK || rce == nil {
			t.Fatalf("counterexample %d did not replay: ok=%v\nrepro: %s", i, res.OK, c.Repro)
		}
		if rce.Reason != c.Reason || rce.Repro != c.Repro {
			t.Errorf("counterexample %d replayed differently:\nfound:    %q\n          %s\nreplayed: %q\n          %s",
				i, c.Reason, c.Repro, rce.Reason, rce.Repro)
		}
	}

	// With the mutation reverted the same crash point must recover clean.
	// The nested coordinates are dropped: they address an event inside the
	// mutated recovery's execution, which the fixed recovery (a different,
	// shorter execution) never reaches.
	core.DebugInPlaceReplay = false
	cfg, lf := parseRepro(t, ce.Repro)
	lf.NestedAt, lf.NestedMask = 0, 0
	res, rce, err := Repro(cfg, lf)
	if err != nil {
		t.Fatalf("fixed replay errored: %v", err)
	}
	if !res.OK {
		reason := res.Reason
		if rce != nil {
			reason = rce.Reason
		}
		t.Fatalf("leaf still fails with the mutation off: %q", reason)
	}
}

// TestReproLineNamesTheRootLeaf: the completion leaf of the root schedule
// has every -repro-* flag at its default, yet its line must still select
// repro mode, so -repro-schedule is written empty.
func TestReproLineNamesTheRootLeaf(t *testing.T) {
	cfg := Config{System: "cx"}
	if got, want := cfg.repro(Leaf{}), "prepexplore -repro-schedule= -system=cx"; got != want {
		t.Errorf("root completion leaf renders %q, want %q", got, want)
	}
}

// parseRepro parses a repro line through prepexplore's flag set.
func parseRepro(t *testing.T, line string) (Config, Leaf) {
	t.Helper()
	var r reproRun
	fs := flag.NewFlagSet("prepexplore", flag.ContinueOnError)
	r.Flags(fs)
	args := strings.Fields(line)
	if len(args) == 0 || args[0] != "prepexplore" {
		t.Fatalf("repro %q does not run prepexplore", line)
	}
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("repro %q: %v", line, err)
	}
	return r.Config, r.Leaf
}

// TestSystemMatchesRegistry pins the accepted Config.System set to the
// registry's recoverable entries: a steady-only construction has no crash
// to explore, and a typo is an error naming the valid spellings.
func TestSystemMatchesRegistry(t *testing.T) {
	want := map[string]bool{"all": false, "prep_durable": false}
	for _, e := range drivers.All() {
		want[e.Flag] = !e.SteadyOnly
	}
	for sys, ok := range want {
		_, err := Run(Config{System: sys, Workers: 1, Ops: 1, MaxCrashPoints: 1})
		if (err == nil) != ok {
			t.Errorf("System=%s: err=%v, want accepted=%v", sys, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "prep-durable") {
			t.Errorf("System=%s: error does not list the valid spellings: %v", sys, err)
		}
	}
}

// TestConfigRejectsUnrunnableSizes: a negative size used to die with a
// makeslice stack trace inside the simulated boot thread, -depth 3 wrote a
// report whose depth contradicted its max_depth and -depth -1 silently
// explored depth 1. Run and Repro share the one validation, which names the
// field. A heap the boot itself exhausts is found by booting; it is the same
// kind of error, not the boot thread's stack trace.
func TestConfigRejectsUnrunnableSizes(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // substring of the error; "" = accepted
	}{
		{Config{Ops: -2}, "Ops"},
		{Config{PrefillN: -1}, "PrefillN"},
		{Config{Workers: -1}, "Workers"},
		{Config{Depth: 3}, "Depth"},
		{Config{Depth: -1}, "Depth"},
		{Config{Workers: 2, Ops: 2, HeapWords: 16}, "-heap=16"},
		{Config{Depth: 2, Workers: 1, Ops: 1, MaxRounds: 1}, ""},
		{Config{Workers: 1, Ops: 1, MaxRounds: 1}, ""},
	} {
		_, runErr := Run(tc.cfg)
		_, _, reproErr := Repro(tc.cfg, Leaf{})
		for name, err := range map[string]error{"Run": runErr, "Repro": reproErr} {
			if tc.want == "" && err != nil {
				t.Errorf("%s(%+v) rejected: %v", name, tc.cfg, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("%s(%+v): err = %v, want one naming %s", name, tc.cfg, err, tc.want)
			}
		}
	}
}
