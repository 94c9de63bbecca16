package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// TestSystemFlagMatchesRegistry pins the accepted -system set to the
// registry: every recoverable entry's spelling (and "all") selects systems
// to run, everything else — a steady-only entry, a typo — is rejected
// instead of running zero cycles and reporting success. Under -instances >
// 1 the set narrows to the entries the registry marks Instanced.
func TestSystemFlagMatchesRegistry(t *testing.T) {
	for _, instances := range []string{"1", "2"} {
		withFlags(t, map[string]string{"instances": instances})
		want := map[string]bool{"all": true, "prep_durable": false}
		for _, e := range drivers.All() {
			want[e.Flag] = !e.SteadyOnly && (instances == "1" || e.Instanced)
		}
		for flag, ok := range want {
			withFlags(t, map[string]string{"system": flag})
			tgs, err := targets()
			if (err == nil) != ok || (ok && len(tgs) == 0) {
				t.Errorf("-instances=%s -system=%s: %d systems, err=%v, want accepted=%v", instances, flag, len(tgs), err, ok)
			}
		}
	}
}

// TestRecoverErrorFailsCycle drives a cycle whose recovery is cut down by
// the armed nested crash and then answers its second attempt with an error:
// the cycle must be recorded failed — not panic the run — with the error
// text and the usual repro on the progress stream.
func TestRecoverErrorFailsCycle(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "epsilon": "16", "log": "128", "seed": "42",
		"policy": "targeted", "nested": "1", "bisect": "false",
	})
	real, err := drivers.Lookup(drivers.Recoverable(), "prep-durable")
	if err != nil {
		t.Fatal(err)
	}
	flaky := target{Entry: real}
	flaky.New = func(sz uc.Sizing) *uc.Driver {
		d := real.New(sz)
		recov, attempts := d.Recover, 0
		d.Recover = func(th *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
			if attempts++; attempts == 2 {
				return nil, uc.RecoverInfo{}, errors.New("persisted image not mine")
			}
			return recov(th, sys)
		}
		return d
	}
	for _, check := range []string{"prefix", "linearize"} {
		withFlags(t, map[string]string{"check": check})
		var buf bytes.Buffer
		cyc := runIteration(&buf, flaky, 0, crashEvent(0))
		if cyc.OK {
			t.Errorf("%s: cycle whose recovery errored was recorded ok", check)
		}
		if cyc.RecoveryAttempts != 2 || cyc.Fault.NestedCrashes != 1 {
			t.Errorf("%s: attempts=%d nested=%d, want 2 and 1", check, cyc.RecoveryAttempts, cyc.Fault.NestedCrashes)
		}
		out := buf.String()
		if !strings.Contains(out, "error: recover: persisted image not mine") ||
			!strings.Contains(out, "repro: crashtest -system=prep-durable -iterations=1") {
			t.Errorf("%s: progress stream lacks the error or the repro:\n%s", check, out)
		}
	}
}
