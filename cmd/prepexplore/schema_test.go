package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prepuc/internal/explore"
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

// TestSchemaGolden locks the prepuc-explore/v1 report byte for byte, as
// `prepexplore -strip-wall` prints it: every recoverable system at the
// default bounds, depth-2 (crashes inside recovery) runs of PREP-Durable and
// CX-PUC, detectable execution on PREP-Durable, and PREP-Buffered with its
// checkpoint windows in reach (-epsilon=2) under detection and depth 2. Every
// count, schedule and leaf of the report is seed-derived. Run `go test
// ./cmd/prepexplore -run TestSchemaGolden -update` to regenerate after an
// intentional change.
func TestSchemaGolden(t *testing.T) {
	cases := []struct {
		name  string
		flags map[string]string
	}{
		{"prep-durable", map[string]string{"system": "prep-durable"}},
		{"prep-buffered", map[string]string{"system": "prep-buffered"}},
		{"cx", map[string]string{"system": "cx"}},
		{"soft", map[string]string{"system": "soft"}},
		{"onll", map[string]string{"system": "onll"}},
		{"prep-durable-depth2", map[string]string{"system": "prep-durable", "depth": "2", "rounds": "2"}},
		{"cx-depth2", map[string]string{"system": "cx", "depth": "2", "rounds": "2"}},
		{"prep-durable-detect", map[string]string{"system": "prep-durable", "detect": "true", "rounds": "2"}},
		{"prep-buffered-eps2-detect-depth2", map[string]string{"system": "prep-buffered",
			"epsilon": "2", "detect": "true", "depth": "2", "rounds": "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withFlags(t, tc.flags)
			rep, err := explore.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Counterexamples) != 0 {
				t.Fatalf("%d counterexamples; first: %s", len(rep.Counterexamples), rep.Counterexamples[0].Repro)
			}
			rep.WallMS = 0 // -strip-wall
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "explore_v1_"+tc.name+".golden.json")
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
				t.Errorf("report drifted from %s (regenerate with -update if intentional)\ngot:\n%s", path, got)
			}
		})
	}
}
