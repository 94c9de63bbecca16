package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prepuc/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// withFlags sets command-line flags for one subtest and restores them after.
func withFlags(t *testing.T, vals map[string]string) {
	t.Helper()
	for name, v := range vals {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("unknown flag %q", name)
		}
		old := f.Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, old) })
	}
}

// selected resolves the -system flag as main does.
func selected(t *testing.T) []harness.CrashTarget {
	t.Helper()
	tgs, err := checkUsage()
	if err != nil {
		t.Fatal(err)
	}
	return tgs
}

// buildDoc is main's run under the current flag values.
func buildDoc(t *testing.T, progress *bytes.Buffer, tgs []harness.CrashTarget) (harness.CrashDoc, int) {
	t.Helper()
	doc, failures, err := harness.BuildCrashDoc(progress, cfg, tgs)
	if err != nil {
		t.Fatal(err)
	}
	return doc, failures
}

// TestSchemaGolden locks the prepuc-crash/v4 JSON document byte for byte:
// every field of a run is virtual-time or seed-derived, so a tiny
// deterministic run must reproduce its golden exactly. One golden covers a
// flat run, one a co-resident (-instances) run with its per-cycle "sharded"
// blocks. Run `go test ./cmd/crashtest -run TestSchemaGolden -update` to
// regenerate after an intentional schema change. Each cycle's "metrics"
// block — the machine's whole counter set — must agree with the "fault" block
// derived from it.
func TestSchemaGolden(t *testing.T) {
	base := map[string]string{
		"iterations": "2", "workers": "2", "epsilon": "16", "log": "128",
		"seed": "42", "policy": "targeted", "j": "1", "nested": "1",
	}
	cases := []struct {
		name   string
		golden string
		extra  map[string]string
	}{
		{"linearize", "crash_v4.golden.json",
			map[string]string{"system": "prep-buffered", "epochs": "2"}},
		{"sharded", "crash_v4_sharded.golden.json",
			map[string]string{"system": "all", "instances": "2", "nested": "0"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			withFlags(t, base)
			withFlags(t, tc.extra)
			var progress bytes.Buffer
			doc, failures := buildDoc(t, &progress, selected(t))
			if failures != 0 {
				t.Fatalf("deterministic run failed %d cycles:\n%s", failures, progress.String())
			}
			for _, sd := range doc.Systems {
				for _, cyc := range sd.Cycles {
					if m, f := cyc.Metrics, cyc.Fault; m.CrashLinesDropped != f.PendingDropped ||
						m.CrashLinesPersisted != f.PendingPersisted ||
						m.RecoveryRestarts != f.RecoveryRestarts || m.ReplayHoles != f.ReplayHoles || m.Stores == 0 {
						t.Errorf("%s cycle %d: metrics block %+v disagrees with fault block %+v", sd.System, cyc.Iteration, m, f)
					}
				}
			}
			got, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("schema document drifted from %s (regenerate with -update if intentional)\ngot:\n%s", path, got)
			}
		})
	}
}

// TestShardedCrashFields guards the -instances additions: the top-level
// instances field, the per-cycle "sharded" block with one verdict per
// co-resident instance and a clean composition audit, zero foreign keys,
// rotating first-wave recovery subsets across iterations, and -j
// independence of the document bytes.
func TestShardedCrashFields(t *testing.T) {
	base := map[string]string{
		"iterations": "3", "workers": "4", "epsilon": "16", "log": "128",
		"seed": "42", "policy": "targeted", "j": "1", "nested": "0",
		"system": "prep-durable", "instances": "2",
	}
	withFlags(t, base)
	var progress bytes.Buffer
	doc, failures := buildDoc(t, &progress, selected(t))
	if failures != 0 {
		t.Fatalf("sharded run failed %d cycles:\n%s", failures, progress.String())
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["instances"].(float64) != 2 {
		t.Fatalf("top-level instances = %v, want 2", m["instances"])
	}
	cycles := m["systems"].([]any)[0].(map[string]any)["cycles"].([]any)
	if len(cycles) != 3 {
		t.Fatalf("got %d cycles, want 3", len(cycles))
	}
	firsts := map[string]bool{}
	for i, c := range cycles {
		cm := c.(map[string]any)
		sb, ok := cm["sharded"].(map[string]any)
		if !ok {
			t.Fatalf("cycle %d has no sharded block", i)
		}
		for _, k := range []string{"instances", "recovered_first", "composition", "per_instance"} {
			if _, ok := sb[k]; !ok {
				t.Errorf("cycle %d sharded block is missing %q", i, k)
			}
		}
		check := cm["check"].(map[string]any)
		comp := sb["composition"].(map[string]any)
		if check["foreign_keys"].(float64) != 0 || sb["instances"].(float64) != 2 || cm["ok"] != true ||
			comp["ok"] != true || comp["shards"].(float64) != 2 || comp["ops_audited"].(float64) != check["ops"].(float64) {
			t.Errorf("cycle %d: ok=%v with %v foreign keys over %v instances, composition %v of %v ops",
				i, cm["ok"], check["foreign_keys"], sb["instances"], comp, check["ops"])
		}
		first := sb["recovered_first"].([]any)
		if len(first) == 0 || len(first) >= 2 {
			t.Errorf("cycle %d: first wave %v is not a proper nonempty subset of 2", i, first)
		}
		firsts[fmt.Sprint(first)] = true
		per := sb["per_instance"].([]any)
		if len(per) != 2 {
			t.Fatalf("cycle %d: %d per-instance entries, want 2", i, len(per))
		}
		var sum float64
		for k, e := range per {
			em := e.(map[string]any)
			if em["instance"].(float64) != float64(k) || em["ok"] != true || em["ops"].(float64) == 0 {
				t.Errorf("cycle %d instance %d: %v", i, k, em)
			}
			sum += em["ops"].(float64)
		}
		if sum != check["ops"].(float64) {
			t.Errorf("cycle %d: per-instance ops sum to %v, cycle says %v", i, sum, check["ops"])
		}
	}
	if len(firsts) < 2 {
		t.Errorf("first-wave subset never rotated: %v", firsts)
	}
	// The document is a pure function of the flags at any -j.
	withFlags(t, map[string]string{"j": "4"})
	progress.Reset()
	doc2, failures := buildDoc(t, &progress, selected(t))
	if failures != 0 {
		t.Fatalf("-j 4 run failed %d cycles", failures)
	}
	raw2, _ := json.Marshal(doc2)
	if !bytes.Equal(raw, raw2) {
		t.Errorf("-j 1 and -j 4 sharded documents disagree")
	}
}

// TestSchemaRequiredFields guards the stability contract independently of
// the golden bytes: the field names must survive any refactor of the Go
// structs, and the fault and checker summaries say what ran (the
// adversary's label, epochs, a nonzero op count and no failure).
func TestSchemaRequiredFields(t *testing.T) {
	withFlags(t, map[string]string{
		"iterations": "1", "workers": "2", "epsilon": "16", "log": "128",
		"seed": "7", "policy": "targeted", "j": "1",
		"system": "prep-buffered", "epochs": "1",
	})
	var progress bytes.Buffer
	doc, failures := buildDoc(t, &progress, selected(t))
	if failures != 0 {
		t.Fatalf("run failed:\n%s", progress.String())
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != harness.CrashSchema {
		t.Fatalf("schema = %v, want %v", m["schema"], harness.CrashSchema)
	}
	for _, k := range []string{"iterations", "workers", "epsilon", "log_size", "seed", "nested", "fault", "checker", "systems"} {
		if _, ok := m[k]; !ok {
			t.Errorf("document is missing top-level field %q", k)
		}
	}
	systems := m["systems"].([]any)
	cycle := systems[0].(map[string]any)["cycles"].([]any)[0].(map[string]any)
	for _, k := range []string{"iteration", "ok", "recovery_virtual_ns", "replayed", "crash_at",
		"recovery_attempts", "fault", "metrics", "check"} {
		if _, ok := cycle[k]; !ok {
			t.Errorf("cycle is missing field %q", k)
		}
	}
	check := cycle["check"].(map[string]any)
	for _, k := range []string{"epochs", "ops", "partitions", "lost", "foreign_keys", "ok", "failed_epoch"} {
		if _, ok := check[k]; !ok {
			t.Errorf("check block is missing field %q", k)
		}
	}
	checker := m["checker"].(map[string]any)
	for _, k := range []string{"epochs", "cycles", "ops", "lost", "failures"} {
		if _, ok := checker[k]; !ok {
			t.Errorf("checker summary is missing field %q", k)
		}
	}
	if checker["epochs"].(float64) != 1 ||
		checker["ops"].(float64) == 0 || checker["failures"].(float64) != 0 || check["ok"] != true {
		t.Errorf("checker summary %v over cycle check %v", checker, check)
	}
	if p := m["fault"].(map[string]any)["policy"]; p != "targeted" || cycle["fault"].(map[string]any)["policy"] != p {
		t.Errorf("fault blocks do not name the adversary: %v, %v", m["fault"], cycle["fault"])
	}
}

// TestNestedCrashTortureAllSystems is CI's nested-crash smoke as a test:
// under the worst-case adversary with one crash armed inside each recovery,
// all five systems pass every cycle, every armed crash lands (one nested
// crash per epoch, summed in the document's fault block) and recovery is
// re-entered exactly once per nested crash.
func TestNestedCrashTortureAllSystems(t *testing.T) {
	withFlags(t, map[string]string{
		"iterations": "2", "workers": "2", "epsilon": "16", "log": "128",
		"seed": "42", "policy": "dropall", "nested": "1", "system": "all",
	})
	var progress bytes.Buffer
	doc, failures := buildDoc(t, &progress, selected(t))
	if failures != 0 || len(doc.Systems) != 5 {
		t.Fatalf("%d failures over %d systems:\n%s", failures, len(doc.Systems), progress.String())
	}
	cycles := uint64(0)
	for _, sd := range doc.Systems {
		for _, cyc := range sd.Cycles {
			cycles++
			if n := cyc.Fault.NestedCrashes; !cyc.OK || n != uint64(cfg.Epochs) || cyc.RecoveryAttempts != 2*int(n) {
				t.Errorf("%s cycle %d: ok=%v nested=%d attempts=%d",
					sd.System, cyc.Iteration, cyc.OK, n, cyc.RecoveryAttempts)
			}
		}
	}
	if doc.Fault.Policy != "dropall" || doc.Fault.NestedCrashes != cycles*uint64(cfg.Epochs) {
		t.Errorf("document fault block %+v over %d cycles", doc.Fault, cycles)
	}
}
