// Package drivers is the registry of construction drivers: every
// construction the harnesses can deploy is listed here once — display name,
// -system spelling, capabilities, constructor — next to the sizing presets
// the tools share and the four lifecycle phases (boot, run a workload,
// recover until an attempt completes, probe) they all run. Adding a construction is its
// package's ConfigFor/NewDriver pair plus one line in all.
package drivers

import (
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

// Boot creates a fresh machine under substrate configuration ncfg and boots
// d on its single boot thread. then, when non-nil, runs on that thread after
// a successful d.Boot: the place for whatever else must exist before the
// first workload thread (service rings, prefill, co-resident engines).
func Boot(d *uc.Driver, ncfg nvm.Config,
	then func(t *sim.Thread, sys *nvm.System, eng uc.UC) error) (*nvm.System, uc.UC, error) {
	sch := sim.New(0)
	sys := nvm.NewSystem(sch, ncfg)
	var eng uc.UC
	var err error
	sch.Spawn("boot", 0, 0, func(t *sim.Thread) {
		defer sim.PanicToErr("boot", &err)
		if eng, err = d.Boot(t, sys); err == nil && then != nil {
			err = then(t, sys, eng)
		}
	})
	sch.Run()
	return sys, eng, err
}

// Run is the workload phase: on a fresh scheduler — armed to crash the
// machine at event crashAt (0: never) — it spawns the auxiliary threads of
// every driver in ds and then workers worker threads, worker w pinned to
// tp.NodeOf(w) and running body, and runs sys until every thread has exited.
// Spawn order is thread-id order, and ids break scheduling ties: auxiliary
// threads first, in ds order, then the workers by index. When no crash cut
// the phase short, the last worker out retires the auxiliary threads. The
// scheduler is returned for its Frozen and Events.
func Run(sys *nvm.System, crashAt uint64, ds []*uc.Driver, tp numa.Topology,
	workers int, body func(t *sim.Thread, w int)) *sim.Scheduler {
	sch := sim.New(0)
	sch.CrashAtEvent(crashAt)
	sys.SetScheduler(sch)
	for _, d := range ds {
		if d.SpawnAux != nil {
			d.SpawnAux()
		}
	}
	live := workers
	for w := 0; w < workers; w++ {
		w := w
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
	sch.Run()
	return sch
}

// Recovery is what Recover measured.
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

// Recover materializes the crash of frozen and runs d.Recover until an
// attempt completes: a recovery cut down by a crash of its own is recovered
// again from the re-crashed machine. nestedAt, when non-nil, names the event
// at which attempt a crashes (0: unarmed). then, when non-nil, runs on the
// recovery thread after a successful d.Recover — the place to rebuild
// volatile state (service rings) before the first post-recovery thread. A
// recovery that answers with an error — or panics on a bug: a construction
// walking an image it cannot make sense of — ends the loop: the error is
// returned along with what was measured up to it.
func Recover(d *uc.Driver, frozen *nvm.System, nestedAt func(attempt int) uint64,
	then func(t *sim.Thread, sys *nvm.System, eng uc.UC) error) (Recovery, error) {
	r := Recovery{Sys: frozen}
	for {
		sch := sim.New(0)
		if nestedAt != nil {
			if at := nestedAt(r.Attempts); at != 0 {
				sch.CrashAtEvent(at)
			}
		}
		r.Sys = r.Sys.Recover(sch)
		r.Attempts++
		var err error
		sch.Spawn("recover", 0, 0, func(t *sim.Thread) {
			defer sim.PanicToErr("recovery", &err)
			start := t.Clock()
			r.Eng, r.Info, err = d.Recover(t, r.Sys)
			r.VirtualNS = t.Clock() - start
			if err == nil && then != nil {
				err = then(t, r.Sys, r.Eng)
			}
		})
		sch.Run()
		if sch.Frozen() {
			r.NestedCrashes++
			continue
		}
		return r, err
	}
}

// Probe runs fn on one thread of a throwaway scheduler installed on sys:
// the state observation between phases. Its timeline is never reported. A
// bug panic in fn — a construction's read walk over an image it cannot make
// sense of — is returned as the error, as Boot and Recover return theirs, and
// so is a deadlock among the threads fn spawned.
func Probe(sys *nvm.System, fn func(t *sim.Thread)) (err error) {
	defer sim.PanicToErr("probe", &err)
	sch := sim.New(0)
	sys.SetScheduler(sch)
	sch.Spawn("probe", 0, 0, func(t *sim.Thread) {
		defer sim.PanicToErr("probe", &err)
		fn(t)
	})
	sch.Run()
	return err
}
