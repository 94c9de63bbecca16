package main

import (
	"bytes"
	"strings"
	"testing"

	"prepuc/internal/drivers"
)

// TestSystemFlagMatchesRegistry pins the accepted -system set to the
// registry, flat and sharded: every entry's spelling (and "all") selects a
// run, except that a steady-only entry is rejected where a crash is armed;
// the error for anything else lists the spellings that would have worked.
func TestSystemFlagMatchesRegistry(t *testing.T) {
	withFlags(t, map[string]string{
		"shards": "2", "keys": "256", "clients": "500", "rate": "1e6",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json",
	})
	for _, tc := range []struct{ scenario, instances string }{
		{"steady", "1"}, {"crash", "1"}, {"steady", "2"}, {"crash", "2"},
	} {
		withFlags(t, map[string]string{"scenario": tc.scenario, "instances": tc.instances})
		want := map[string]bool{"all": true, "prep_durable": false}
		for _, e := range drivers.All() {
			want[e.Flag] = !e.SteadyOnly || tc.scenario == "steady"
		}
		for flag, ok := range want {
			withFlags(t, map[string]string{"system": flag})
			doc, _, err := buildDoc(&bytes.Buffer{})
			if (err == nil) != ok {
				t.Errorf("%+v -system=%s: err=%v, want accepted=%v", tc, flag, err, ok)
			}
			if err == nil && len(doc.Systems) == 0 {
				t.Errorf("%+v -system=%s ran no system", tc, flag)
			}
			if flag == "prep_durable" && err != nil && !strings.Contains(err.Error(), "prep-durable") {
				t.Errorf("%+v: unknown-system error does not list the valid spellings: %v", tc, err)
			}
		}
	}
}
