package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBenchJSONSchema validates the machine-readable bench output: the
// document carries the schema tag, every point exposes the required wire
// keys (including the counter breakdown the acceptance criteria name), and
// the document round-trips through JSON without losing a point.
func TestBenchJSONSchema(t *testing.T) {
	sc := TinyScale()
	fig := Catalog(sc)["fig1a"]
	points, err := RunFigure(fig, sc, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := NewBenchDoc(sc, 1)
	doc.AddFigure(fig, points)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}

	// Wire-level keys.
	var raw struct {
		Schema      string `json:"schema"`
		Scale       string `json:"scale"`
		Experiments []struct {
			Figure string                   `json:"figure"`
			Points []map[string]interface{} `json:"points"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Schema != BenchSchema {
		t.Errorf("schema = %q, want %q", raw.Schema, BenchSchema)
	}
	if len(raw.Experiments) != 1 || raw.Experiments[0].Figure != "fig1a" {
		t.Fatalf("experiments = %+v, want one fig1a entry", raw.Experiments)
	}
	for _, pt := range raw.Experiments[0].Points {
		for _, key := range []string{"algo", "threads", "ops", "ops_per_sec", "metrics"} {
			if _, ok := pt[key]; !ok {
				t.Fatalf("point missing key %q: %v", key, pt)
			}
		}
		met, ok := pt["metrics"].(map[string]interface{})
		if !ok {
			t.Fatalf("metrics is %T, want object", pt["metrics"])
		}
		for _, key := range []string{
			"flushes", "fences", "wbinvd_count",
			"coherence_local", "coherence_remote",
			"combiner_acquisitions", "mean_batch_size",
		} {
			if _, ok := met[key]; !ok {
				t.Errorf("point metrics missing key %q", key)
			}
		}
	}

	// Round-trip.
	var back BenchDoc
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Experiments[0].Points) != len(points) {
		t.Fatalf("round-trip lost points: %d vs %d",
			len(back.Experiments[0].Points), len(points))
	}
	for i, p := range back.Experiments[0].Points {
		if p != points[i] {
			t.Errorf("point %d changed across round-trip:\n  %+v\nvs\n  %+v", i, p, points[i])
		}
	}
}

// TestBenchDocRecovery checks the recovery extension lands in the document
// with its own keys.
func TestBenchDocRecovery(t *testing.T) {
	doc := NewBenchDoc(TinyScale(), 7)
	doc.AddRecovery([]RecoveryPoint{{
		System: "PREP-Durable", Param: "e=32",
		UpdatesRun: 100, Replayed: 12, VirtualNS: 34567,
	}})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Experiments []struct {
			Figure   string                   `json:"figure"`
			Recovery []map[string]interface{} `json:"recovery"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Experiments[0].Figure != "ext-recovery" {
		t.Fatalf("figure = %q", raw.Experiments[0].Figure)
	}
	rec := raw.Experiments[0].Recovery[0]
	for _, key := range []string{"system", "param", "updates_run", "replayed", "recovery_virtual_ns"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("recovery point missing key %q", key)
		}
	}
}
