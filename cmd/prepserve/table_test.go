package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestTableCarriesRecordNumbers renders the default -format table for a
// steady run, a checked crash run and a sharded partial crash, and holds
// every system line, and every crash@, detect:, check: and shard N: line, to
// the numbers of the JSON record buildDoc returns alongside it.
func TestTableCarriesRecordNumbers(t *testing.T) {
	cases := []struct {
		name  string
		extra map[string]string
	}{
		{"steady", map[string]string{"scenario": "steady"}},
		{"crash", map[string]string{"scenario": "crash", "crash-ns": "200000",
			"policy": "targeted", "check": "true"}},
		{"sharded-crash", map[string]string{"scenario": "crash", "crash-ns": "200000",
			"crash-shards": "0,2", "policy": "targeted", "check": "true",
			"instances": "4", "workers": "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withFlags(t, serveBase)
			withFlags(t, tc.extra)
			withFlags(t, map[string]string{"format": "table"})
			var table bytes.Buffer
			doc, _, err := buildSelected(&table)
			if err != nil {
				t.Fatal(err)
			}
			// One block per system: its header line and the indented
			// lines under it.
			var blocks [][]string
			for _, line := range strings.Split(strings.TrimSuffix(table.String(), "\n"), "\n") {
				if !strings.HasPrefix(line, " ") {
					blocks = append(blocks, nil)
				}
				blocks[len(blocks)-1] = append(blocks[len(blocks)-1], line)
			}
			if len(blocks) != len(doc.Systems) {
				t.Fatalf("%d table blocks for %d records:\n%s", len(blocks), len(doc.Systems), table.String())
			}
			for i, r := range doc.Systems {
				b := blocks[i]
				wantLine(t, b, r.System+" ", fmt.Sprintf("%.0f ops/s", r.OpsPerSec),
					fmt.Sprintf("completed=%d/%d", r.Completed, r.Submitted))
				if c := r.Crash; c != nil {
					wantLine(t, b, fmt.Sprintf("  crash@%d:", c.CrashAtNS),
						fmt.Sprintf("recovery=%.3fms", float64(c.RecoveryVirtualNS)/1e6),
						fmt.Sprintf("replayed=%d ", c.Replayed),
						fmt.Sprintf("stall=%.3fms", float64(c.StallNS)/1e6),
						fmt.Sprintf("lost_inflight=%d ", c.LostInflight),
						fmt.Sprintf("backlog=%d ", c.BacklogAtResume),
						fmt.Sprintf("drain=%.3fms", float64(c.BacklogDrainNS)/1e6))
					if c.Detectable {
						wantLine(t, b, "  detect:",
							fmt.Sprintf("in_flight_resolved=%d ", c.InFlightResolved),
							fmt.Sprintf("resolved_completed=%d ", c.ResolvedCompleted),
							fmt.Sprintf("duplicates_applied=%d", *c.DuplicatesApplied))
					}
				}
				if cb := r.Check; cb != nil {
					if !cb.OK {
						t.Fatalf("%s: check failed: %s", r.System, cb.Reason)
					}
					wantLine(t, b, "  check:", cb.Mode+" ok",
						fmt.Sprintf("epochs=%d ", cb.Epochs), fmt.Sprintf("ops=%d ", cb.Ops),
						fmt.Sprintf("lost=%d ", cb.Lost), fmt.Sprintf("committed=%d ", cb.InFlightCommitted),
						fmt.Sprintf("never=%d", cb.InFlightNever))
				}
				for _, sh := range r.Shards {
					wantLine(t, b, fmt.Sprintf("    shard %d:", sh.Shard),
						fmt.Sprintf("%.0f ops/s", sh.Result.OpsPerSec),
						fmt.Sprintf("completed=%d/%d", sh.Result.Completed, sh.Result.Submitted))
				}
				if (r.Crash != nil) != hasPrefix(b, "  crash@") || (r.Check != nil) != hasPrefix(b, "  check:") ||
					(len(r.Shards) > 0) != hasPrefix(b, "    shard ") {
					t.Errorf("%s: table block and record disagree on which sections exist:\n%s",
						r.System, strings.Join(b, "\n"))
				}
			}
		})
	}
}

// wantLine finds the block's line starting with prefix and checks it carries
// every part.
func wantLine(t *testing.T, block []string, prefix string, parts ...string) {
	t.Helper()
	for _, line := range block {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for _, p := range parts {
			if !strings.Contains(line, p) {
				t.Errorf("line %q lacks %q", line, p)
			}
		}
		return
	}
	t.Errorf("no line starting with %q in:\n%s", prefix, strings.Join(block, "\n"))
}

func hasPrefix(block []string, prefix string) bool {
	for _, line := range block {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
