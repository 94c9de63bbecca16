package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
// exit 2 — a runflag.UsageError from main's path, validate then the systems
// then harness.RunShardedServe, refused before any load runs: an instance
// count below one used to run flat without a word, -workers 0 and -batch 65
// used to panic inside the run, a -ring that is not a power of two failed
// only after boot, -crash-shards / -route on a single machine were silently
// ignored, a -crash-shards index past -instances failed the run (exit 1)
// after boot, and a -workers split, read share, client count or ε no machine
// can run exited 1 as a failed run. The accepted rows run to completion.
func TestValidateNamesIgnoredFlags(t *testing.T) {
	withFlags(t, map[string]string{
		"keys": "256", "clients": "500", "rate": "1e6", "system": "prep-durable",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json",
	})
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
		{map[string]string{"instances": "0"}, "Instances must be positive, got 0"},
		{map[string]string{"instances": "-2"}, "Instances must be positive, got -2"},
		{map[string]string{"workers": "0"}, "TotalWorkers 0"},
		{map[string]string{"workers": "3", "instances": "2"}, "TotalWorkers 3 does not divide across 2"},
		{map[string]string{"batch": "65"}, "MaxBatch 65"},
		{map[string]string{"batch": "0"}, "MaxBatch 0"},
		{map[string]string{"batch": "64"}, ""},
		{map[string]string{"batched": "false", "batch": "65"}, ""},
		{map[string]string{"batched": "false", "batch": "0"}, "MaxBatch 0"},
		{map[string]string{"ring": "1000"}, "RingSize must be a power of two, got 1000"},
		{map[string]string{"ring": "0"}, "RingSize must be a power of two, got 0"},
		{map[string]string{"ring": "1"}, ""},
		{map[string]string{"scenario": "crash", "crash-shards": "0"}, "-crash-shards=0"},
		{map[string]string{"scenario": "crash", "instances": "2", "crash-shards": "5"}, "CrashShards index 5 out of range [0,2)"},
		{map[string]string{"scenario": "crash", "instances": "2", "crash-shards": "1,1"}, "-crash-shards=1,1"},
		{map[string]string{"route": "range"}, "-route=range"},
		{map[string]string{"readpct": "150"}, "ReadPct must be in [0, 100], got 150"},
		{map[string]string{"clients": "0"}, "Clients must be positive, got 0"},
		{map[string]string{"epsilon": "0"}, "Epsilon required"},
		{map[string]string{"system": "prep_durable"}, "prep-durable"},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			withFlags(t, tc.flags)
			_, _, err := buildSelected(io.Discard)
			if tc.want == "" && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if tc.want != "" && (!errors.As(err, new(runflag.UsageError)) || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("err = %v, want a usage error naming %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsWhatItCannotMeasure pins the runs that used to exit 0 with a
// record of something else: a crash instant past the drained load reported a
// crash under load (stall 0, nothing in flight), flat and per crashed machine,
// and a read share outside [0, 100] ran all-read or update-only under the
// requested label. The read share is a usage error (exit 2); the crash that
// never fired is found by the run, so it is not.
func TestRunRejectsWhatItCannotMeasure(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "keys": "256", "clients": "500", "rate": "1e6", "system": "prep-durable",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json",
	})
	for _, tc := range []struct {
		flags map[string]string
		want  string
		usage bool
	}{
		{map[string]string{"scenario": "crash", "crash-ns": "999999999"}, "never fired (load drained first)", false},
		{map[string]string{"scenario": "crash", "crash-ns": "999999999", "instances": "2", "crash-shards": "1"}, "never fired (load drained first)", false},
		{map[string]string{"readpct": "101"}, "ReadPct", true},
		{map[string]string{"readpct": "-1"}, "ReadPct", true},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			withFlags(t, tc.flags)
			_, _, err := buildSelected(&bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
			if usage := errors.As(err, new(runflag.UsageError)); usage != tc.usage {
				t.Errorf("err = %v: usage error %v, want %v", err, usage, tc.usage)
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

// TestOutputWrittenOnceTheRunReturns: a configuration the harness refuses
// leaves no -o file behind (it used to leave an empty one), and a run that
// fails still leaves one, holding what it rendered before the failure.
func TestOutputWrittenOnceTheRunReturns(t *testing.T) {
	withFlags(t, map[string]string{
		"workers": "2", "keys": "256", "clients": "500", "rate": "1e6", "system": "prep-durable",
		"duration": "60000", "think": "5000", "burst-every": "0", "format": "json",
	})
	for _, tc := range []struct {
		flags map[string]string
		usage bool
	}{
		{map[string]string{"readpct": "150"}, true},
		{map[string]string{"batch": "65"}, true},
		{map[string]string{"scenario": "crash", "crash-ns": "999999999"}, false},
	} {
		t.Run(fmt.Sprint(tc.flags), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			withFlags(t, tc.flags)
			withFlags(t, map[string]string{"o": path})
			err := cfg.serve()
			if usage := errors.As(err, new(runflag.UsageError)); err == nil || usage != tc.usage {
				t.Fatalf("err = %v: usage error %v, want a failure, usage %v", err, usage, tc.usage)
			}
			if _, serr := os.Stat(path); (serr == nil) == tc.usage {
				t.Errorf("err = %v: -o file present = %v", err, serr == nil)
			}
		})
	}
}
