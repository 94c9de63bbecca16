package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"prepuc/internal/harness"
	"prepuc/internal/metrics"
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

// buildSelected is main's run: the command line validated, then the systems
// -system selects, through buildDoc.
func buildSelected(progress io.Writer) (*serveDoc, []string, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	systems, err := cfg.selectSystems()
	if err != nil {
		return nil, nil, err
	}
	return cfg.buildDoc(progress, systems)
}

// serveBase is a small deterministic run: every field of the document is
// virtual-time or seed-derived, so the goldens lock it byte for byte.
var serveBase = map[string]string{
	"workers": "2", "ring": "256", "batch": "32", "epsilon": "16",
	"clients": "20000", "keys": "4096", "skew": "1.2", "readpct": "80",
	"rate": "2e+06", "duration": "400000", "think": "20000",
	"burst-every": "100000", "burst-len": "20000", "burst-factor": "4",
	"seed": "42", "format": "json",
}

// TestSchemaGolden locks the prepuc-serve/v4 JSON document byte for byte.
// One golden covers the steady scenario, one the checked crash scenario
// under the targeted fault adversary, and two the sharded multi-instance
// mode — a steady 4-machine deployment (all six systems, PREP-Volatile
// included) and a partial crash of machines {0,2} with survivors serving
// through. Run `go test ./cmd/prepserve -run TestSchemaGolden -update` to
// regenerate after an intentional (additive-only) schema change. Every
// record of the four documents is also held to checkMetrics.
func TestSchemaGolden(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		extra  map[string]string
	}{
		{"steady", "serve_v4_steady.golden.json",
			map[string]string{"scenario": "steady", "check": "true"}},
		{"crash", "serve_v4_crash.golden.json",
			map[string]string{"scenario": "crash", "crash-ns": "200000",
				"policy": "targeted", "check": "true"}},
		{"sharded-steady", "serve_v4_sharded_steady.golden.json",
			map[string]string{"scenario": "steady", "check": "true",
				"instances": "4", "workers": "4"}},
		{"sharded-crash", "serve_v4_sharded_crash.golden.json",
			map[string]string{"scenario": "crash", "crash-ns": "200000",
				"crash-shards": "0,2", "policy": "targeted", "check": "true",
				"instances": "4", "workers": "4"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			withFlags(t, serveBase)
			withFlags(t, tc.extra)
			var progress bytes.Buffer
			doc, failures, err := buildSelected(&progress)
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) != 0 {
				t.Fatalf("deterministic run failed %d checks: %q", len(failures), failures)
			}
			for _, r := range doc.Systems {
				checkMetrics(t, r)
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

// checkMetrics holds a record's "metrics" block — the machine's whole counter
// set, the block a prepuc-bench point carries — against the blocks derived
// from the same counters: the ring counters equal the "ring" block, the dedup
// hits of a detectable crash resume equal resolved_completed, operation
// descriptors are written by exactly the detectable (recoverable PREP)
// drivers, and a sharded aggregate's block is the field-wise sum of its
// machines'.
func checkMetrics(t *testing.T, r *harness.ServeResult) {
	t.Helper()
	m := r.Metrics
	if m.RingSubmits != r.Ring.Submits || m.RingFullStalls != r.Ring.FullStalls ||
		m.RingBatches != r.Ring.Batches || m.RingBatchedOps != r.Ring.BatchedOps {
		t.Errorf("%s: metrics ring counters %d/%d/%d/%d differ from the ring block %+v", r.System,
			m.RingSubmits, m.RingFullStalls, m.RingBatches, m.RingBatchedOps, r.Ring)
	}
	if c := r.Crash; c != nil && c.Detectable && m.DedupHits != c.ResolvedCompleted {
		t.Errorf("%s: dedup_hits = %d, resolved_completed = %d", r.System, m.DedupHits, c.ResolvedCompleted)
	}
	if detect := r.System == "PREP-Durable" || r.System == "PREP-Buffered"; detect != (m.DescriptorWrites > 0) {
		t.Errorf("%s: descriptor_writes = %d", r.System, m.DescriptorWrites)
	}
	if len(r.Shards) == 0 {
		return
	}
	var sum metrics.Snapshot
	for _, sh := range r.Shards {
		checkMetrics(t, sh.Result)
		sum = sum.Add(sh.Result.Metrics)
	}
	if sum != m {
		t.Errorf("%s: aggregate metrics block is not the sum of its shards':\n got %+v\nwant %+v", r.System, m, sum)
	}
}

// TestSchemaRequiredFields guards the wire contract independently of the
// golden bytes: the v1 field names and the v2 detect/check additions must
// survive any refactor of the Go structs. It also holds, on the decoded
// document, what CI's Python used to assert on the smoke runs' output: the
// header echoes the flags, latency percentiles are monotone, recovery stalls
// the clients at least as long as it runs, exactly the PREP drivers are
// detectable and resolve their whole in-flight window, both epochs are
// checked, and PREP-Durable's batched path engages.
func TestSchemaRequiredFields(t *testing.T) {
	withFlags(t, serveBase)
	withFlags(t, map[string]string{
		"scenario": "crash", "crash-ns": "200000",
		"policy": "coinflip", "check": "true",
	})
	var progress bytes.Buffer
	doc, failures, err := buildSelected(&progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("run failed %d checks: %q", len(failures), failures)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != ServeSchema {
		t.Fatalf("schema = %v, want %v", m["schema"], ServeSchema)
	}
	for _, k := range []string{"scenario", "clients", "rate_ops_per_sec",
		"duration_virtual_ns", "shards", "batched", "seed", "policy", "check", "systems"} {
		if _, ok := m[k]; !ok {
			t.Errorf("document is missing top-level field %q", k)
		}
	}
	if m["scenario"] != "crash" || m["policy"] != "coinflip" || m["check"] != true {
		t.Errorf("header scenario=%v policy=%v check=%v does not echo the flags", m["scenario"], m["policy"], m["check"])
	}
	systems := m["systems"].([]any)
	if len(systems) != 5 {
		t.Fatalf("got %d systems, want 5", len(systems))
	}
	for _, s := range systems {
		sm := s.(map[string]any)
		name := sm["system"].(string)
		for _, k := range []string{"submitted", "completed", "ops_per_sec", "latency_ns", "ring", "crash", "check"} {
			if _, ok := sm[k]; !ok {
				t.Errorf("%s: record is missing field %q", name, k)
			}
		}
		num := func(block map[string]any, k string) float64 {
			v, ok := block[k].(float64)
			if !ok {
				t.Errorf("%s: field %q is %v, want a number", name, k, block[k])
			}
			return v
		}
		lat, ring := sm["latency_ns"].(map[string]any), sm["ring"].(map[string]any)
		if p50, p99, p999 := num(lat, "p50"), num(lat, "p99"), num(lat, "p999"); num(sm, "completed") == 0 ||
			p50 > p99 || p99 > p999 || p999 > num(lat, "max") || num(lat, "mean") == 0 {
			t.Errorf("%s: completed=%v with latency %v", name, sm["completed"], lat)
		}
		for _, k := range []string{"submits", "full_stalls", "batches", "batched_ops", "mean_batch"} {
			num(ring, k)
		}
		if name == "PREP-Durable" && (num(ring, "batches") == 0 || num(ring, "mean_batch") < 1) {
			t.Errorf("%s: the batched path did not engage: %v", name, ring)
		}
		crash := sm["crash"].(map[string]any)
		for _, k := range []string{"crash_at_ns", "recovery_virtual_ns", "replayed",
			"stall_ns", "lost_inflight", "backlog_at_resume", "backlog_drain_ns",
			"detectable", "in_flight_resolved", "resolved_completed"} {
			if _, ok := crash[k]; !ok {
				t.Errorf("%s: crash block is missing field %q", name, k)
			}
		}
		if rec := num(crash, "recovery_virtual_ns"); rec == 0 || num(crash, "stall_ns") < rec {
			t.Errorf("%s: stall %v ns, recovery %v ns", name, crash["stall_ns"], rec)
		}
		detect := crash["detectable"].(bool)
		if detect != (name == "PREP-Durable" || name == "PREP-Buffered") {
			t.Errorf("%s: detectable = %v", name, detect)
		}
		dup, hasDup := crash["duplicates_applied"]
		if detect != hasDup {
			t.Errorf("%s: detectable=%v but duplicates_applied present=%v", name, detect, hasDup)
		}
		if detect {
			if dup.(float64) != 0 {
				t.Errorf("%s: duplicates_applied = %v, want 0", name, dup)
			}
			if crash["in_flight_resolved"] != crash["lost_inflight"] {
				t.Errorf("%s: resolved %v of %v in-flight operations",
					name, crash["in_flight_resolved"], crash["lost_inflight"])
			}
		}
		check := sm["check"].(map[string]any)
		for _, k := range []string{"mode", "ok", "epochs", "ops", "lost",
			"in_flight_committed", "in_flight_never", "failed_epoch"} {
			if _, ok := check[k]; !ok {
				t.Errorf("%s: check block is missing field %q", name, k)
			}
		}
		if check["ok"] != true || num(check, "epochs") != 2 {
			t.Errorf("%s: check failed or skipped an epoch: %v", name, check)
		}
	}
}

// TestShardedSchemaFields guards the v3 sharded additions: top-level
// instances/route (and crash_shards on crash runs), per-system breakdowns
// with one entry per machine, and the composition verdict — by value where
// CI's Python used to: a crashed machine stalls and, detectable, applies no
// duplicate; every machine passes its own check; the audit finds nothing
// misrouted and no foreign key, and unions the histories only when no
// machine crashed.
func TestShardedSchemaFields(t *testing.T) {
	withFlags(t, serveBase)
	withFlags(t, map[string]string{
		"scenario": "crash", "crash-ns": "200000", "crash-shards": "1,3",
		"policy": "coinflip", "check": "true",
		"instances": "4", "workers": "4",
	})
	var progress bytes.Buffer
	doc, failures, err := buildSelected(&progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("run failed %d checks: %q", len(failures), failures)
	}
	raw, _ := json.Marshal(doc)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["instances"].(float64) != 4 || m["route"] != "hash" {
		t.Fatalf("sharded header: instances=%v route=%v", m["instances"], m["route"])
	}
	cs := m["crash_shards"].([]any)
	if len(cs) != 2 || cs[0].(float64) != 1 || cs[1].(float64) != 3 {
		t.Fatalf("crash_shards = %v", cs)
	}
	systems := m["systems"].([]any)
	if len(systems) != 5 {
		t.Fatalf("sharded crash matrix: got %d systems, want the 5 recoverable ones", len(systems))
	}
	for _, s := range systems {
		sm := s.(map[string]any)
		name := sm["system"].(string)
		for _, k := range []string{"route", "imbalance", "shards", "composition", "crash", "check"} {
			if _, ok := sm[k]; !ok {
				t.Errorf("%s: sharded record is missing %q", name, k)
			}
		}
		shards := sm["shards"].([]any)
		if len(shards) != 4 {
			t.Fatalf("%s: %d shard entries, want 4", name, len(shards))
		}
		for i, e := range shards {
			em := e.(map[string]any)
			wantCrash := i == 1 || i == 3
			if em["shard"].(float64) != float64(i) || em["crashed"].(bool) != wantCrash {
				t.Errorf("%s shard %d: %v", name, i, em)
			}
			rm := em["result"].(map[string]any)
			c, hasCrash := rm["crash"].(map[string]any)
			if hasCrash != wantCrash {
				t.Errorf("%s shard %d: crash block present=%v, want %v", name, i, hasCrash, wantCrash)
			}
			if hasCrash && (c["stall_ns"].(float64) == 0 || c["detectable"] == true && c["duplicates_applied"].(float64) != 0) {
				t.Errorf("%s shard %d: crash block %v", name, i, c)
			}
			if rm["check"].(map[string]any)["ok"] != true {
				t.Errorf("%s shard %d: check failed: %v", name, i, rm["check"])
			}
		}
		if sm["route"] != "hash" || sm["imbalance"].(float64) < 1 {
			t.Errorf("%s: route=%v imbalance=%v", name, sm["route"], sm["imbalance"])
		}
		comp := sm["composition"].(map[string]any)
		if comp["ok"] != true || comp["misrouted_ops"].(float64) != 0 || comp["foreign_keys"].(float64) != 0 ||
			comp["union_checked"] != false {
			t.Errorf("%s: composition of a partial crash: %v", name, comp)
		}
		crash := sm["crash"].(map[string]any)
		if crash["detectable"] == true && (crash["duplicates_applied"].(float64) != 0 ||
			crash["in_flight_resolved"] != crash["lost_inflight"]) {
			t.Errorf("%s: aggregate crash block %v", name, crash)
		}
		if sm["check"].(map[string]any)["ok"] != true {
			t.Errorf("%s: aggregate check failed", name)
		}
	}
	// The steady sharded matrix adds PREP-Volatile.
	withFlags(t, map[string]string{"scenario": "steady", "crash-shards": "", "policy": ""})
	doc, failures, err = buildSelected(&progress)
	if err != nil || len(failures) != 0 {
		t.Fatalf("steady sharded: err=%v failures=%q", err, failures)
	}
	if len(doc.Systems) != 6 || doc.Systems[0].System != "PREP-Volatile" {
		names := make([]string, len(doc.Systems))
		for i, s := range doc.Systems {
			names[i] = s.System
		}
		t.Fatalf("steady sharded matrix = %v, want PREP-Volatile + the 5 recoverable", names)
	}
	for _, s := range doc.Systems {
		if c := s.Composition; !c.OK || !c.UnionChecked || c.UnionOps == 0 {
			t.Errorf("%s: steady composition did not union the histories: %+v", s.System, c)
		}
	}
}

// TestCheckOffByDefault proves an unchecked document carries no "check" key
// per system — the v1-compatible shape.
func TestCheckOffByDefault(t *testing.T) {
	withFlags(t, serveBase)
	withFlags(t, map[string]string{"scenario": "steady", "system": "soft"})
	var progress bytes.Buffer
	doc, _, err := buildSelected(&progress)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(doc)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	sm := m["systems"].([]any)[0].(map[string]any)
	if _, ok := sm["check"]; ok {
		t.Error("unchecked run emitted a check block")
	}
	if _, ok := sm["crash"]; ok {
		t.Error("steady run emitted a crash block")
	}
}
