package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smoke runs one pass of a workload at 1/50 of its size.
func smoke(t *testing.T, w *workload, trace bool) *outcome {
	t.Helper()
	out, err := run(w, options{seed: 1, trace: trace, scale: 0.02, microMin: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%q",
			w.name, out.Correct, out.Attempted, out.Failed, out.Problems)
	}
	return out
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloads runs every workload twice (untraced pass, traced pass) and
// checks what the benchmark promises about itself: the two runs and the
// traced repetitions agree bit for bit on the virtual clock, each pass emits
// exactly the names BENCHMARK.json lists for it, the bypass predictions hold
// on the baseline, and the spans account for the wall.
func TestWorkloads(t *testing.T) {
	listed := loadBenchmarkJSON(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e := smoke(t, w, false)
			layers := smoke(t, w, true) // run() fails it if a traced repetition's virtual results differ
			if e2e.virt != layers.virt {
				t.Errorf("two runs at one seed differ on the virtual clock:\n%+v\n%+v", e2e.virt, layers.virt)
			}
			if w.contract {
				if len(e2e.Metrics) != len(listed.EndToEnd) {
					t.Errorf("untraced pass emitted %d metrics, BENCHMARK.json lists %d", len(e2e.Metrics), len(listed.EndToEnd))
				}
				for _, m := range listed.EndToEnd {
					if v, ok := e2e.Metrics[m.Name]; !ok || v <= 0 || math.IsInf(v, 0) {
						t.Errorf("end-to-end metric %s = %v (present %v): must be emitted and never 0", m.Name, v, ok)
					}
				}
			}
			if len(layers.Metrics) != len(listed.PerLayer) {
				t.Errorf("traced pass emitted %d metrics, BENCHMARK.json lists %d", len(layers.Metrics), len(listed.PerLayer))
			}
			for _, m := range listed.PerLayer {
				if v, ok := layers.Metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
				}
			}

			s, lm := layers.virt.Snap, layers.Metrics
			switch w.name {
			case "closed_read":
				if s.Flushes+s.Fences+s.WBINVDs+s.CombinerAcquisitions+s.LogTailCASAttempts+s.Updates != 0 {
					t.Errorf("read path touched the update path: %+v", s.Counters)
				}
				fallthrough
			case "closed_update_durable", "closed_update_buffered", "explore_small":
				if s.RingSubmits != 0 || lm["svc.ring_submits_per_op"] != 0 {
					t.Errorf("%d ring submits on a workload that bypasses svc", s.RingSubmits)
				}
			case "serve_steady":
				sum := lm["svc.ring_wait_vns_mean"] + lm["core.batch_exec_vns_mean_per_op"]
				if mean := layers.virt.Lat.Mean; math.Abs(sum-mean) > 1e-9*mean {
					t.Errorf("ring wait + batch execution = %v, mean latency = %v", sum, mean)
				}
			case "serve_crash":
				if lm["svc.stall_vns"] < lm["core.recover_vns"] || lm["core.recover_vns"] == 0 {
					t.Errorf("stall %v ns, recovery %v ns", lm["svc.stall_vns"], lm["core.recover_vns"])
				}
				if got := float64(layers.virt.RecoverVNS); got != lm["core.recover_vns"] {
					t.Errorf("Recover wrapper saw %v virtual ns, harness reports %v", got, lm["core.recover_vns"])
				}
			}
			if wall, spans := lm["harness.wall_s"], layers.tracer.topLevelHostS(); math.Abs(wall-spans) > 0.02*wall {
				t.Errorf("top-level spans cover %.4fs of %.4fs wall", spans, wall)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue and to the
// contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	var contract []*workload
	for _, w := range workloads {
		if w.contract {
			contract = append(contract, w)
		}
	}
	if len(b.Workloads) != len(contract) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads listed, %d in the program", len(b.Workloads), len(contract))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != contract[i].name || w.Why != contract[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q does not match the program's %q / %q", i, w.Name, w.Why, contract[i].name, contract[i].why)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics listed, %d in the catalogue", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound ||
			m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v does not match the catalogue's %+v", m, d)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s missing")
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, %d in the catalogue", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v does not match the catalogue's %+v", m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestCompare: a document compares clean against itself, a worsened copy
// regresses, and a changed virtual result at the same seed is flagged.
func TestCompare(t *testing.T) {
	doc := func(hostUS, vtput float64, failed uint64) *document {
		return &document{docHeader: docHeader{Schema: schema, Seed: 1}, Workloads: []docWorkload{{
			Name: "serve_steady", Correct: true, Attempted: 100, Failed: failed, FailedShare: float64(failed) / 100,
			EndToEnd: map[string]docMetric{
				"host_us_per_op":  {Value: hostUS, Unit: "us/op", Clock: clockHost, Better: "lower", Bound: 0.25},
				"vtput_ops_per_s": {Value: vtput, Unit: "ops/s", Clock: clockVirtual, Better: "higher", Bound: 0.05},
			},
		}}}
	}
	base := doc(7.6, 1.2e7, 0)
	for _, tc := range []struct {
		name  string
		other *document
		code  int
		says  string
	}{
		{"same", doc(7.6, 1.2e7, 0), 0, "0 regression(s), 0 drifted"},
		{"host noise within the bound", doc(8.2, 1.2e7, 0), 0, "0 regression(s)"},
		{"host regression", doc(10.0, 1.2e7, 0), 1, "REGRESSION"},
		{"virtual drift within the bound", doc(7.6, 1.19e7, 0), 0, "drift"},
		{"virtual regression", doc(7.6, 1.0e7, 0), 1, "REGRESSION"},
		{"failed ops", doc(7.6, 1.2e7, 1), 1, "failed_share"},
	} {
		var buf bytes.Buffer
		if code := compare(base, tc.other, &buf); code != tc.code || !bytes.Contains(buf.Bytes(), []byte(tc.says)) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", tc.name, code, tc.code, tc.says, buf.String())
		}
	}
}
