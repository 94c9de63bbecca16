package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/harness"
	"prepuc/internal/nvm"
	"prepuc/internal/runflag"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// TestSystemFlagMatchesRegistry pins the accepted -system set to the
// registry: every recoverable entry's spelling (and "all") selects systems
// to run, everything else — a steady-only entry, a typo — is rejected
// instead of running zero cycles and reporting success. Under -instances >
// 1 the set narrows to the entries the registry marks Instanced.
func TestSystemFlagMatchesRegistry(t *testing.T) {
	for _, instances := range []int{1, 2} {
		want := map[string]bool{"all": true, "prep_durable": false}
		for _, e := range drivers.All() {
			want[e.Flag] = !e.SteadyOnly && (instances == 1 || e.Instanced)
		}
		for flag, ok := range want {
			tgs, err := harness.CrashTargets(flag, instances)
			if (err == nil) != ok || (ok && len(tgs) == 0) {
				t.Errorf("-instances=%d -system=%s: %d systems, err=%v, want accepted=%v", instances, flag, len(tgs), err, ok)
			}
		}
	}
}

// TestValidateRejectsVacuousRuns pins the flag values main refuses with exit
// 2 — a runflag.UsageError from checkUsage, the format check and then
// harness.CrashConfig.Validate over the parsed flags: a run of zero cycles,
// epochs or workers checks nothing and must not report success, a geometry
// PREP refuses at boot must not be recorded as a failed cycle per iteration,
// and every refusal must keep naming its flag.
func TestValidateRejectsVacuousRuns(t *testing.T) {
	for _, tc := range []struct {
		flags map[string]string
		want  string // substring of the error; "" = accepted
	}{
		{map[string]string{}, ""},
		{map[string]string{"iterations": "1", "workers": "1", "epochs": "1"}, ""},
		{map[string]string{"instances": "2"}, ""},
		{map[string]string{"iterations": "0"}, "-iterations=0"},
		{map[string]string{"iterations": "-3"}, "-iterations=-3"},
		{map[string]string{"workers": "0"}, "-workers=0"},
		{map[string]string{"epochs": "0"}, "-epochs=0"},
		{map[string]string{"instances": "0"}, "-instances=0"},
		{map[string]string{"nested": "-1"}, "-nested=-1"},
		{map[string]string{"instances": "3"}, "-workers=8 not divisible by -instances=3"},
		{map[string]string{"instances": "2", "nested": "1"}, "-nested"},
		{map[string]string{"format": "yaml"}, `unknown format "yaml"`},
		{map[string]string{"policy": "sometimes"}, "sometimes"},
		{map[string]string{"system": "prep_durable"}, "prep-durable"},
		{map[string]string{"epsilon": "0", "system": "prep-durable"}, "-epsilon=0"},
		{map[string]string{"log": "4", "system": "prep-durable"}, "-log=4"},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			withFlags(t, tc.flags)
			_, err := checkUsage()
			if tc.want == "" && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if tc.want != "" && (!errors.As(err, new(runflag.UsageError)) || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("err = %v, want a usage error naming %q", err, tc.want)
			}
		})
	}
}

// wrapRecover returns target flag's registry entry with every driver it
// builds passed through wrap.
func wrapRecover(t *testing.T, flag string, wrap func(d *uc.Driver)) harness.CrashTarget {
	t.Helper()
	tgs, err := harness.CrashTargets(flag, cfg.Instances)
	if err != nil {
		t.Fatal(err)
	}
	tg, build := tgs[0], tgs[0].New
	tg.New = func(sz uc.Sizing) *uc.Driver {
		d := build(sz)
		wrap(d)
		return d
	}
	return tg
}

// exhausted forwards Execute until its budget of calls is spent, then panics
// as an allocator out of heap does.
type exhausted struct {
	uc.UC
	left *int
}

func (e exhausted) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	if *e.left--; *e.left < 0 {
		panic(`pmem: out of memory in "g0.rheap0"`)
	}
	return e.UC.Execute(t, tid, op)
}

// TestRecoverErrorFailsCycle drives cycles that cannot complete: one whose
// recovery is cut down by the armed nested crash and then answers its second
// attempt with an error, and one whose workers run out of heap before the
// crash point (crashtest -crash-at past what the heap holds). Either must be
// recorded failed — not panic the run — with the error text and the usual
// repro on the progress stream.
func TestRecoverErrorFailsCycle(t *testing.T) {
	for _, tc := range []struct {
		name             string
		wrap             func(d *uc.Driver)
		attempts, nested int
		want             string
	}{
		{"recovery-error", func(d *uc.Driver) {
			recov, attempts := d.Recover, 0
			d.Recover = func(th *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
				if attempts++; attempts == 2 {
					return nil, uc.RecoverInfo{}, errors.New("persisted image not mine")
				}
				return recov(th, sys)
			}
		}, 2, 1, "error: recover: persisted image not mine"},
		{"worker-out-of-heap", func(d *uc.Driver) {
			boot, left := d.Boot, 40
			d.Boot = func(th *sim.Thread, sys *nvm.System) (uc.UC, error) {
				eng, err := boot(th, sys)
				return exhausted{eng, &left}, err
			}
		}, 0, 0, `error: cycle panicked: sim thread "worker": pmem: out of memory in "g0.rheap0"`},
	} {
		withFlags(t, map[string]string{
			"iterations": "1", "workers": "2", "epsilon": "16", "log": "128", "seed": "42",
			"policy": "targeted", "nested": "1", "bisect": "false",
		})
		broken := wrapRecover(t, "prep-durable", tc.wrap)
		var buf bytes.Buffer
		doc, failures := buildDoc(t, &buf, []harness.CrashTarget{broken})
		cyc := doc.Systems[0].Cycles[0]
		if cyc.OK || cyc.Check.OK || failures != 1 {
			t.Errorf("%s: the cycle was recorded ok (failures=%d)", tc.name, failures)
		}
		if cyc.RecoveryAttempts != tc.attempts || int(cyc.Fault.NestedCrashes) != tc.nested {
			t.Errorf("%s: attempts=%d nested=%d, want %d and %d", tc.name,
				cyc.RecoveryAttempts, cyc.Fault.NestedCrashes, tc.attempts, tc.nested)
		}
		out := buf.String()
		if !strings.Contains(out, tc.want) || !regexp.MustCompile(`repro: crashtest .*-iterations=1 .*-system=prep-durable`).MatchString(out) {
			t.Errorf("%s: progress stream lacks the error or the repro:\n%s", tc.name, out)
		}
	}
}

// counting forwards Execute and counts the calls that returned.
type counting struct {
	uc.UC
	done *int
}

func (c counting) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	r := c.UC.Execute(t, tid, op)
	*c.done++
	return r
}

// TestBisectShrinksToBoundaryAndReproFails plants a failure that is monotone
// in the crash point — recovery answers with an error once more than limit
// Executes completed on the instance before the crash — under the flat and
// co-resident cycles. -bisect must shrink the failing
// crash point to the exact boundary (the cycle passes one event earlier), and
// the printed repro line, parsed as a command line and run as iteration 0,
// must fail at that point.
func TestBisectShrinksToBoundaryAndReproFails(t *testing.T) {
	const limit = 40
	for _, tc := range []struct {
		name  string
		flags map[string]string
	}{
		{"linearize", map[string]string{"workers": "2", "epochs": "1"}},
		{"co-resident", map[string]string{"workers": "4", "instances": "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := map[string]string{}
			flag.VisitAll(func(f *flag.Flag) { saved[f.Name] = f.Value.String() })
			t.Cleanup(func() {
				for name, v := range saved {
					flag.Set(name, v)
				}
			})
			withFlags(t, map[string]string{
				"iterations": "3", "epsilon": "16", "log": "128", "seed": "7",
				"policy": "targeted", "system": "prep-durable", "j": "1",
			})
			withFlags(t, tc.flags)
			brittle := wrapRecover(t, "prep-durable", func(d *uc.Driver) {
				boot, recov, done := d.Boot, d.Recover, 0
				d.Boot = func(th *sim.Thread, sys *nvm.System) (uc.UC, error) {
					eng, err := boot(th, sys)
					return counting{eng, &done}, err
				}
				d.Recover = func(th *sim.Thread, sys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
					if done > limit {
						return nil, uc.RecoverInfo{}, fmt.Errorf("%d operations completed", done)
					}
					return recov(th, sys)
				}
			})
			tgs := []harness.CrashTarget{brittle}

			var buf bytes.Buffer
			_, failures := buildDoc(t, &buf, tgs)
			if failures != 3 {
				t.Fatalf("%d of 3 cycles failed, want all (crash points are far past the boundary):\n%s", failures, buf.String())
			}
			shrunk := regexp.MustCompile(`bisect: crash point shrunk (\d+) -> (\d+)\n\s+repro: crashtest (.*)\n`).
				FindAllStringSubmatch(buf.String(), -1)
			if len(shrunk) != 3 {
				t.Fatalf("want a bisect and a repro line per failed cycle:\n%s", buf.String())
			}
			for i, match := range shrunk {
				// Parse the repro as main would and run it: iteration 0 of the
				// reproduced run is iteration i of this one.
				if err := flag.CommandLine.Parse(strings.Fields(match[3])); err != nil {
					t.Fatal(err)
				}
				if _, err := checkUsage(); err != nil {
					t.Fatalf("repro %q does not validate: %v", match[3], err)
				}
				if cfg.Iterations != 1 || fmt.Sprint(cfg.CrashAt) != match[2] {
					t.Fatalf("repro %q does not pin one iteration at the bisected point %s", match[3], match[2])
				}
				withFlags(t, map[string]string{"bisect": "false"})
				buf.Reset()
				doc, failures := buildDoc(t, &buf, tgs)
				if cyc := doc.Systems[0].Cycles[0]; failures != 1 || cyc.OK || cyc.CrashAt != cfg.CrashAt {
					t.Errorf("cycle %d: repro %q did not fail at its crash point:\n%s", i, match[3], buf.String())
				}
				// One event earlier the same machine passes: the boundary is exact.
				withFlags(t, map[string]string{"crash-at": fmt.Sprint(cfg.CrashAt - 1)})
				if _, failures := buildDoc(t, &buf, tgs); failures != 0 {
					t.Errorf("cycle %d: crash point %s is not the boundary, %d also fails", i, match[2], cfg.CrashAt)
				}
				t.Logf("cycle %d: %s shrunk to the boundary %s", i, match[1], match[2])
			}
		})
	}
}
