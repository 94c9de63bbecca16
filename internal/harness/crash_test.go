package harness

import (
	"errors"
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
