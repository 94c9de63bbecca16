package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/runflag"
)

// TestCrashConfigValidate pins what CrashConfig.Validate refuses, each a
// runflag.UsageError naming its flag, before BuildCrashDoc runs a cycle: a
// run of zero cycles, epochs or workers checks nothing and must not report
// success, and a geometry a construction refuses at boot — no ε, or a log of
// β entries or fewer, where LogSize−β−1 used to wrap around and admit every ε
// — is one refusal, not a failed cycle per iteration.
func TestCrashConfigValidate(t *testing.T) {
	base := CrashConfig{
		System: "all", Iterations: 1, Workers: 8, Epsilon: 64, LogSize: 256,
		Seed: 1, Epochs: 1, Instances: 1, Bisect: true,
	}
	for _, tc := range []struct {
		name string
		mut  func(*CrashConfig)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*CrashConfig) {}, ""},
		{"co-resident", func(c *CrashConfig) { c.Instances = 2 }, ""},
		{"no iterations", func(c *CrashConfig) { c.Iterations = 0 }, "-iterations=0"},
		{"negative iterations", func(c *CrashConfig) { c.Iterations = -3 }, "-iterations=-3"},
		{"no workers", func(c *CrashConfig) { c.Workers = 0 }, "-workers=0"},
		{"no epochs", func(c *CrashConfig) { c.Epochs = 0 }, "-epochs=0"},
		{"no instances", func(c *CrashConfig) { c.Instances = 0 }, "-instances=0"},
		{"negative nested", func(c *CrashConfig) { c.Nested = -1 }, "-nested=-1"},
		{"uneven split", func(c *CrashConfig) { c.Instances = 3 }, "-workers=8 not divisible by -instances=3"},
		{"co-resident nested", func(c *CrashConfig) { c.Instances, c.Nested = 2, 1 }, "-nested"},
		{"unknown policy", func(c *CrashConfig) { c.Policy = "sometimes" }, "sometimes"},
		{"unknown system", func(c *CrashConfig) { c.System = "prep_durable" }, "prep-durable"},
		{"no co-resident cx", func(c *CrashConfig) { c.System, c.Instances = "cx", 2 }, "-system=cx"},
		{"no epsilon", func(c *CrashConfig) { c.Epsilon = 0 }, "PREP-Durable at -workers=8 -log=256 -epsilon=0"},
		{"log of beta", func(c *CrashConfig) { c.System, c.LogSize = "prep-durable", 4 }, "-log=4"},
		{"log below beta", func(c *CrashConfig) { c.System, c.LogSize, c.Epsilon = "prep-buffered", 3, 1 }, "-log=3"},
		{"epsilon past the log", func(c *CrashConfig) { c.System, c.Epsilon = "prep-durable", 252 }, "-epsilon=252"},
		{"epsilon at the bound", func(c *CrashConfig) { c.System, c.Epsilon = "prep-durable", 251 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			err := c.Validate()
			if tc.want == "" && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if tc.want != "" && (!errors.As(err, new(runflag.UsageError)) || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("err = %v, want a usage error naming %q", err, tc.want)
			}
			if tc.want == "" {
				return
			}
			// BuildCrashDoc refuses the same run before any cycle.
			var progress strings.Builder
			tgs, _ := CrashTargets("prep-durable", 1)
			if doc, _, berr := BuildCrashDoc(&progress, c, tgs); berr == nil || berr.Error() != err.Error() ||
				len(doc.Systems) > 0 || progress.Len() > 0 {
				t.Errorf("BuildCrashDoc: err = %v, %d systems, progress %q; want Validate's refusal and no cycle",
					berr, len(doc.Systems), progress.String())
			}
		})
	}
}

// TestCrashReprosReplayTheirCycles: the repro line of every iteration, not
// only of a failed one, parsed back through crashtest's flags and run alone
// through BuildCrashDoc, records the same cycle as the iteration did, field
// by field, the iteration index aside — flat, co-resident (where the first
// recovery wave rotates across iterations) and with nested crashes in two
// recovery attempts (where only attempt 0's point is pinned).
func TestCrashReprosReplayTheirCycles(t *testing.T) {
	base := CrashConfig{
		System: "prep-durable", Iterations: 3, Workers: 4, Epsilon: 64, LogSize: 256,
		Seed: 1, Policy: "dropall", Epochs: 2, Instances: 1, Bisect: true,
	}
	for _, tc := range []struct {
		name string
		mut  func(*CrashConfig)
	}{
		{"flat", func(*CrashConfig) {}},
		{"co-resident", func(c *CrashConfig) { c.Instances = 2 }},
		{"nested", func(c *CrashConfig) { c.Nested = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			tgs, err := CrashTargets(c.System, c.Instances)
			if err != nil {
				t.Fatal(err)
			}
			doc, _, err := BuildCrashDoc(io.Discard, c, tgs)
			if err != nil {
				t.Fatal(err)
			}
			for i, cyc := range doc.Systems[0].Cycles {
				line := c.repro(tgs[0], i, cyc.CrashAt)
				var r CrashConfig
				fs := flag.NewFlagSet("crashtest", flag.ContinueOnError)
				r.Flags(fs)
				if err := fs.Parse(strings.Fields(line)[1:]); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				rtgs, err := CrashTargets(r.System, r.Instances)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				rdoc, _, err := BuildCrashDoc(io.Discard, r, rtgs)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				got := rdoc.Systems[0].Cycles[0]
				got.Iteration = cyc.Iteration
				for _, d := range fieldDiffs("cycle", reflect.ValueOf(cyc), reflect.ValueOf(got)) {
					t.Errorf("iteration %d, %s: %s", i, line, d)
				}
			}
		})
	}
}

// fieldDiffs lists where a and b, values of one type, differ: each leaf
// field by its path, descending into structs and through pointers.
func fieldDiffs(path string, a, b reflect.Value) (out []string) {
	switch {
	case a.Kind() == reflect.Pointer && !a.IsNil() && !b.IsNil():
		return fieldDiffs(path, a.Elem(), b.Elem())
	case a.Kind() == reflect.Struct:
		for i := range a.NumField() {
			out = append(out, fieldDiffs(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
		return out
	case !reflect.DeepEqual(a.Interface(), b.Interface()):
		return []string{fmt.Sprintf("%s = %v, repro %v", path, a.Interface(), b.Interface())}
	}
	return nil
}
