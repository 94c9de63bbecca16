package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/harness"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// TestSystemFlagMatchesRegistry pins the accepted -system set to the
// registry, flat and sharded: every entry's spelling (and "all") selects a
// run, except that a steady-only entry is rejected where a crash is armed;
// the error for anything else lists the spellings that would have worked.
func TestSystemFlagMatchesRegistry(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "keys": "256", "clients": "500", "rate": "1e6",
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
			doc, _, err := buildSelected(&bytes.Buffer{})
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

// TestValidateNamesIgnoredFlags pins the flag combinations main turns into
// exit 2: an instance count below one used to run flat without a word,
// -workers 0 and -batch 65 used to panic inside the run, a -ring that is not a
// power of two failed only after boot, -crash-shards / -route on a single
// machine were silently ignored, and a -crash-shards index past -instances
// failed the run (exit 1) after boot.
func TestValidateNamesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		flags map[string]string
		want  string // substring of the error; "" = accepted
	}{
		{map[string]string{}, ""},
		{map[string]string{"scenario": "crash", "instances": "2", "crash-shards": "1", "route": "range"}, ""},
		{map[string]string{"instances": "1", "route": "hash"}, ""},
		{map[string]string{"format": "json"}, ""},
		{map[string]string{"format": "xml"}, "-format=xml"},
		{map[string]string{"scenario": "melt"}, `unknown scenario "melt"`},
		{map[string]string{"instances": "0"}, "-instances=0"},
		{map[string]string{"instances": "-2"}, "-instances=-2"},
		{map[string]string{"workers": "0"}, "-workers=0"},
		{map[string]string{"batch": "65"}, "-batch=65"},
		{map[string]string{"batch": "0"}, "-batch=0"},
		{map[string]string{"batch": "64"}, ""},
		{map[string]string{"batched": "false", "batch": "65"}, ""},
		{map[string]string{"batched": "false", "batch": "0"}, "-batch=0"},
		{map[string]string{"ring": "1000"}, "-ring=1000"},
		{map[string]string{"ring": "0"}, "-ring=0"},
		{map[string]string{"ring": "1"}, ""},
		{map[string]string{"scenario": "crash", "crash-shards": "0"}, "-crash-shards=0"},
		{map[string]string{"scenario": "crash", "instances": "2", "crash-shards": "5"}, "-crash-shards=5: shard: shard index 5 out of range [0,2)"},
		{map[string]string{"scenario": "crash", "instances": "2", "crash-shards": "1,1"}, "-crash-shards=1,1"},
		{map[string]string{"route": "range"}, "-route=range"},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			withFlags(t, tc.flags)
			err := cfg.validate()
			if tc.want == "" && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsWhatItCannotMeasure pins the runs that used to exit 0 with a
// record of something else: a crash instant past the drained load reported a
// crash under load (stall 0, nothing in flight), flat and per crashed machine,
// and a read share outside [0, 100] ran all-read or update-only under the
// requested label.
func TestRunRejectsWhatItCannotMeasure(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "keys": "256", "clients": "500", "rate": "1e6", "system": "prep-durable",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json",
	})
	for _, tc := range []struct {
		flags map[string]string
		want  string
	}{
		{map[string]string{"scenario": "crash", "crash-ns": "999999999"}, "never fired (load drained first)"},
		{map[string]string{"scenario": "crash", "crash-ns": "999999999", "instances": "2", "crash-shards": "1"}, "never fired (load drained first)"},
		{map[string]string{"readpct": "101"}, "ReadPct"},
		{map[string]string{"readpct": "-1"}, "ReadPct"},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			withFlags(t, tc.flags)
			if _, _, err := buildSelected(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestDuplicateFailsRun: a record reporting duplicates_applied > 0 counts
// against the run like a failed check (main exits 1) — prepserve used to
// print the count and exit 0, and only CI's Python read it. The count itself
// is forced in internal/harness (TestDuplicateAuditCountsCommittedResubmissions).
func TestDuplicateFailsRun(t *testing.T) {
	dup := func(n uint64) *harness.CrashStats {
		return &harness.CrashStats{Detectable: true, DuplicatesApplied: &n}
	}
	for _, tc := range []struct {
		name string
		rec  harness.ServeResult
		want bool
	}{
		{"steady, unchecked", harness.ServeResult{}, false},
		{"blind retry, no verdicts", harness.ServeResult{Crash: &harness.CrashStats{}}, false},
		{"exactly once", harness.ServeResult{Crash: dup(0), Check: &harness.CheckStats{OK: true}}, false},
		{"one double apply", harness.ServeResult{Crash: dup(1), Check: &harness.CheckStats{OK: true}}, true},
		{"one double apply, unchecked", harness.ServeResult{Crash: dup(1)}, true},
		{"failed check", harness.ServeResult{Crash: dup(0), Check: &harness.CheckStats{}}, true},
	} {
		if got := failed(&tc.rec); got != tc.want {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// lying answers every operation one more than the engine did, which no
// linearization admits.
type lying struct{ uc.UC }

func (l lying) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	return l.UC.Execute(t, tid, op) + 1
}

// TestFailedRecordPrintsItsRepro: a system that fails its check comes back
// with one repro line, which parses back through run.Flags to the run's own
// flags with -system narrowed to the failed system.
func TestFailedRecordPrintsItsRepro(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "keys": "256", "clients": "500", "rate": "1e6", "seed": "9",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json", "check": "true",
	})
	e, err := drivers.Lookup(drivers.Recoverable(), "soft")
	if err != nil {
		t.Fatal(err)
	}
	build := e.New
	e.New = func(sz uc.Sizing) *uc.Driver {
		d := build(sz)
		boot := d.Boot
		d.Boot = func(th *sim.Thread, sys *nvm.System) (uc.UC, error) {
			eng, err := boot(th, sys)
			return lying{eng}, err
		}
		return d
	}
	doc, repros, err := cfg.buildDoc(io.Discard, []drivers.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || doc.Systems[0].Check.OK {
		t.Fatalf("a lying engine passed its check or printed %d repro lines: %q", len(repros), repros)
	}
	t.Logf("repro: %s", repros[0])
	var got run
	fs := flag.NewFlagSet("prepserve", flag.ContinueOnError)
	got.Flags(fs)
	args := strings.Fields(repros[0])
	if args[0] != "prepserve" {
		t.Fatalf("repro %q does not run prepserve", repros[0])
	}
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("repro %q: %v", repros[0], err)
	}
	want := cfg
	want.system = "soft"
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repro %q parses to\n%+v\nwant\n%+v", repros[0], got, want)
	}
}
