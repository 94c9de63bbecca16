// Package drivers is the registry of construction drivers: every
// construction the harnesses can deploy is listed here once — display name,
// -system spelling, capabilities, constructor — next to the sizing presets
// the tools share and the phases they all run, each one call of Phase. Adding
// a construction is its package's ConfigFor/NewDriver pair plus one line in
// all.
package drivers

import (
	"cmp"
	"fmt"

	"prepuc/internal/core"
	"prepuc/internal/cxpuc"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/onll"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/soft"
	"prepuc/internal/uc"
)

// Entry is one registered construction.
type Entry struct {
	// Name is the display name (uc.Driver.Name, the "system" of every
	// document); Flag its -system spelling on every CLI.
	Name, Flag string
	// SteadyOnly marks a construction without a recovery path: it cannot be
	// placed in a crash scenario.
	SteadyOnly bool
	// Instanced marks a construction that honours uc.Sizing.Instance, so
	// several of its engines can co-reside on one nvm.System.
	Instanced bool
	// New builds a fresh driver; every machine lineage needs its own.
	New func(sz uc.Sizing) *uc.Driver
}

// all is the registry, in document order. Name and SteadyOnly are read off a
// driver built from the zero sizing, so they are stated once, by the
// constructor.
var all = []Entry{
	prep("prep-volatile", core.Volatile),
	prep("prep-durable", core.Durable),
	prep("prep-buffered", core.Buffered),
	entry("cx", func(sz uc.Sizing) *uc.Driver { return cxpuc.NewDriver(cxpuc.ConfigFor(sz)) }),
	entry("soft", func(sz uc.Sizing) *uc.Driver { return soft.NewDriver(soft.ConfigFor(sz)) }),
	entry("onll", func(sz uc.Sizing) *uc.Driver { return onll.NewDriver(onll.ConfigFor(sz)) }),
}

func entry(flag string, mk func(uc.Sizing) *uc.Driver) Entry {
	d := mk(uc.Sizing{})
	return Entry{Name: d.Name, Flag: flag, SteadyOnly: d.Recover == nil, New: mk}
}

func prep(flag string, mode core.Mode) Entry {
	e := entry(flag, func(sz uc.Sizing) *uc.Driver { return core.NewDriver(core.ConfigFor(mode, sz)) })
	e.Instanced = true
	return e
}

// All lists every registered construction in document order.
func All() []Entry { return append([]Entry(nil), all...) }

// Recoverable lists the constructions with a recovery path — the crash
// matrix of every tool — in document order.
func Recoverable() []Entry {
	var out []Entry
	for _, e := range all {
		if !e.SteadyOnly {
			out = append(out, e)
		}
	}
	return out
}

// Flags lists the entries' -system spellings.
func Flags(entries []Entry) []string {
	flags := make([]string, len(entries))
	for i, e := range entries {
		flags[i] = e.Flag
	}
	return flags
}

// Lookup finds the candidate spelled flag on the command line; the error
// lists the spellings that would have been accepted.
func Lookup(candidates []Entry, flag string) (Entry, error) {
	for _, e := range candidates {
		if e.Flag == flag {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown system %q (want one of %v)", flag, Flags(candidates))
}

// CrashScale is the machine crashtest, prepserve and the integration tests
// share, so the crash and serve harnesses measure the same constructions:
// everything but the shape, log size and ε each tool takes from its flags.
func CrashScale(tp numa.Topology, workers int, logSize, epsilon uint64) uc.Sizing {
	return uc.Sizing{
		Topology: tp, Workers: workers, LogSize: logSize, Epsilon: epsilon,
		Object:    seq.HashMapType(256),
		HeapWords: 1 << 21,
		// Half PREP's heap: CX-PUC writes back a whole replica per update.
		CXHeapWords: 1 << 20, CXQueueCap: 1 << 18, CXCapReplicas: 8,
		SoftBuckets: 512, SoftWords: 1 << 20,
		ONLLLogEntries: 1 << 13,
	}
}

// ExploreScale is the explorer's machine: tiny on purpose, because the
// explorer's cost is (schedules x crash classes x persist masks)
// whole-machine executions — every word of heap multiplies into the
// fingerprint walks and every extra event into the replays. The caller
// fills in Topology, Workers and Detect.
func ExploreScale() uc.Sizing {
	return uc.Sizing{
		Object:  seq.HashMapType(8),
		LogSize: 64, Epsilon: 8,
		HeapWords:   1 << 12,
		CXHeapWords: 1 << 12, CXQueueCap: 1 << 10, CXCapReplicas: 4,
		SoftBuckets: 8, SoftWords: 1 << 12,
		ONLLLogEntries: 1 << 10,
	}
}

// Phase is one phase of a machine's life, the one place a scheduler is made:
// it installs a fresh scheduler on sys, lets spawn arm it (a crash, a
// Chooser, sys's hooks, a runaway guard) and spawn the threads in its own
// order, runs them and returns the scheduler. A bug panic or a deadlock
// verdict that Run raises is the error, as Run worded it; it froze the
// scheduler too, so only with a nil error does Frozen mean a crash.
func Phase(sys *nvm.System, spawn func(sch *sim.Scheduler)) (sch *sim.Scheduler, err error) {
	sch = sim.New(0)
	sys.SetScheduler(sch)
	spawn(sch)
	defer func() {
		if rc := recover(); rc != nil {
			err = fmt.Errorf("%v", rc)
		}
	}()
	sch.Run()
	return sch, nil
}

// Boot creates a fresh machine under substrate configuration ncfg and boots
// d on its single boot thread. then, when non-nil, runs on that thread after
// a successful d.Boot: the place for whatever else must exist before the
// first workload thread (service rings, prefill, co-resident engines).
func Boot(d *uc.Driver, ncfg nvm.Config,
	then func(t *sim.Thread, sys *nvm.System, eng uc.UC) error) (sys *nvm.System, eng uc.UC, err error) {
	sys = nvm.NewSystem(nil, ncfg)
	_, verdict := Phase(sys, func(sch *sim.Scheduler) {
		sch.Spawn("boot", 0, 0, func(t *sim.Thread) {
			defer sim.PanicToErr("boot", &err)
			if eng, err = d.Boot(t, sys); err == nil && then != nil {
				err = then(t, sys, eng)
			}
		})
	})
	return sys, eng, cmp.Or(err, verdict)
}

// Run is the workload phase, armed to crash the machine at event crashAt (0:
// never): the auxiliary threads of every driver in ds, in ds order, then
// workers worker threads by index, worker w pinned to tp.NodeOf(w) and
// running body (spawn order is thread-id order, and ids break scheduling
// ties). When no crash cut the phase short, the last worker out retires the
// auxiliary threads.
func Run(sys *nvm.System, crashAt uint64, ds []*uc.Driver, tp numa.Topology,
	workers int, body func(t *sim.Thread, w int)) (*sim.Scheduler, error) {
	return Phase(sys, func(sch *sim.Scheduler) {
		sch.CrashAtEvent(crashAt)
		for _, d := range ds {
			if d.SpawnAux != nil {
				d.SpawnAux()
			}
		}
		live := workers
		for w := 0; w < workers; w++ {
			sch.Spawn("worker", tp.NodeOf(w), 0, func(t *sim.Thread) {
				body(t, w)
				if live--; live > 0 {
					return
				}
				for _, d := range ds {
					if d.StopAux != nil {
						d.StopAux(t)
					}
				}
			})
		}
	})
}

// Recovery is what Recover, or one RecoverOnce, measured.
type Recovery struct {
	// Sys is the machine the last attempt ran on and Eng the engine it
	// rebuilt.
	Sys  *nvm.System
	Eng  uc.UC
	Info uc.RecoverInfo
	// Attempts counts recovery runs; NestedCrashes those an armed crash cut
	// down inside the recovery itself.
	Attempts, NestedCrashes int
	// VirtualNS is the virtual time Driver.Recover took on the attempt that
	// completed.
	VirtualNS uint64
}

// RecoverOnce is one recovery attempt: d.Recover on the recovery thread of
// sys, a machine a crash was just materialized into (nvm.System.Recover),
// after arm armed the phase; NestedCrashes is 1 if an armed crash cut it
// down. then, when non-nil, runs on the recovery thread after a successful
// d.Recover — the place to rebuild volatile state (service rings). An error,
// a bug panic ("recovery panicked: …", an image the construction cannot make
// sense of) or a deadlock is returned with what was measured up to it.
func RecoverOnce(d *uc.Driver, sys *nvm.System, arm func(*sim.Scheduler),
	then func(t *sim.Thread, sys *nvm.System, eng uc.UC) error) (r Recovery, err error) {
	r = Recovery{Sys: sys, Attempts: 1}
	sch, verdict := Phase(sys, func(sch *sim.Scheduler) {
		arm(sch)
		sch.Spawn("recover", 0, 0, func(t *sim.Thread) {
			defer sim.PanicToErr("recovery", &err)
			start := t.Clock()
			r.Eng, r.Info, err = d.Recover(t, sys)
			r.VirtualNS = t.Clock() - start
			if err == nil && then != nil {
				err = then(t, sys, r.Eng)
			}
		})
	})
	if verdict == nil && sch.Frozen() {
		r.NestedCrashes = 1
	}
	return r, cmp.Or(err, verdict)
}

// Recover materializes the crash of frozen and runs RecoverOnce until an
// attempt completes: a recovery cut down by a crash of its own is recovered
// again from the re-crashed machine. nestedAt, when non-nil, names the event
// at which attempt a crashes (0: unarmed); then is RecoverOnce's. An attempt's
// error ends the loop.
func Recover(d *uc.Driver, frozen *nvm.System, nestedAt func(attempt int) uint64,
	then func(t *sim.Thread, sys *nvm.System, eng uc.UC) error) (Recovery, error) {
	r := Recovery{Sys: frozen}
	for {
		a, err := RecoverOnce(d, r.Sys.Recover(nil), func(sch *sim.Scheduler) {
			if nestedAt != nil {
				sch.CrashAtEvent(nestedAt(r.Attempts))
			}
		}, then)
		cut := a.NestedCrashes
		a.Attempts, a.NestedCrashes = r.Attempts+1, r.NestedCrashes+cut
		if err != nil || cut == 0 {
			return a, err
		}
		r = a
	}
}

// Probe runs fn on one thread of a throwaway scheduler installed on sys:
// the state observation between phases. Its timeline is never reported. A
// bug panic in fn — a construction's read walk over an image it cannot make
// sense of — is returned as the error "probe panicked: …", and a deadlock
// among the threads fn spawned as Run's verdict.
func Probe(sys *nvm.System, fn func(t *sim.Thread)) (err error) {
	_, verdict := Phase(sys, func(sch *sim.Scheduler) {
		sch.Spawn("probe", 0, 0, func(t *sim.Thread) {
			defer sim.PanicToErr("probe", &err)
			fn(t)
		})
	})
	return cmp.Or(err, verdict)
}
