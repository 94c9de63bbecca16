package harness

// machine.go is the crash experiment's machine: K co-resident constructions
// on one nvm.System, taken through the four lifecycle phases of
// internal/drivers — boot, workload (into a crash), recover, probe. Every
// crash cycle in the repository is a sequence of these methods: crashtest's
// cycles (crash.go), the recovery-time experiment (recovery.go) and the
// integration crash tests. The machine draws no random number: what
// randomness a cycle has is in its nvm.Config (substrate seed, fault policy)
// and its workload bodies.

import (
	"fmt"
	"slices"

	"prepuc/internal/drivers"
	"prepuc/internal/linearize"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Machine is K ≥ 1 co-resident constructions on one simulated machine. The
// instances share the substrate — one crash takes all of them down — and
// nothing else: each keeps its own regions (uc.Sizing.Instance), log and
// recovery state.
type Machine struct {
	// Topology pins the workers of a workload phase (worker w runs on
	// NodeOf(w), instance-major); its ThreadsPerNode is the β of the buffered
	// loss bound.
	Topology numa.Topology
	Drivers  []*uc.Driver
	// Sys is the live substrate and Engines the engines to drive, by
	// instance. Recover replaces both.
	Sys     *nvm.System
	Engines []uc.UC
}

// KeyFunc names the i-th key worker tid of instance k inserts.
type KeyFunc func(k, tid int, i uint64) uint64

// Key encodes worker tid's i-th key of an insert workload: distinct keys,
// one ordered sequence per worker.
func Key(tid int, i uint64) uint64 { return uint64(tid)<<32 | i }

// FlatKey is the single-instance key sequence: Key, untagged.
func FlatKey(_, tid int, i uint64) uint64 { return Key(tid, i) }

// BootMachine boots ds, in order, on one fresh machine under substrate
// configuration ncfg. On error the machine (its Sys is always set) and the
// error are both returned.
func BootMachine(tp numa.Topology, ncfg nvm.Config, ds ...*uc.Driver) (*Machine, error) {
	m := &Machine{Topology: tp, Drivers: ds, Engines: make([]uc.UC, len(ds))}
	var err error
	m.Sys, m.Engines[0], err = drivers.Boot(ds[0], ncfg,
		func(t *sim.Thread, sys *nvm.System, _ uc.UC) (err error) {
			for k := 1; k < len(ds) && err == nil; k++ {
				m.Engines[k], err = ds[k].Boot(t, sys)
			}
			return err
		})
	return m, err
}

// Run is one workload phase (drivers.Run) with wp workers per instance:
// worker tid of instance k runs body(t, k, tid). A nonzero crashAt arms the
// crash that ends the phase; the error is drivers.Phase's.
func (m *Machine) Run(crashAt uint64, wp int, body func(t *sim.Thread, k, tid int)) (*sim.Scheduler, error) {
	return drivers.Run(m.Sys, crashAt, m.Drivers, m.Topology, len(m.Drivers)*wp,
		func(t *sim.Thread, w int) { body(t, w/wp, w%wp) })
}

// InsertUntilCrash is the insert workload: every worker inserts its key
// sequence key(k, tid, 0), key(k, tid, 1), … until the crash armed at
// crashAt. Instance k's recorder holds its workers' inserts, the one each
// worker had begun at the crash recorded in flight. The workers never return:
// the phase ends in the crash or in Run's error (the heap ran out first).
func (m *Machine) InsertUntilCrash(crashAt uint64, wp int, key KeyFunc) ([]*linearize.Recorder, error) {
	recs := make([]*linearize.Recorder, len(m.Drivers))
	for k := range recs {
		recs[k] = linearize.NewRecorder(wp)
	}
	_, err := m.Run(crashAt, wp, func(t *sim.Thread, k, tid int) {
		for i := uint64(0); ; i++ {
			op := uc.Insert(key(k, tid, i), i)
			recs[k].Exec(t, tid, op, func() uint64 { return m.Engines[k].Execute(t, tid, op) })
		}
	})
	return recs, err
}

// Recovered is what Machine.Recover measured: the recovery runs wave 0 took
// and how many of them a nested crash cut down, the virtual time of the
// waves that completed, and the log entries each instance replayed.
type Recovered struct {
	Attempts, NestedCrashes int
	VirtualNS               uint64
	Replayed                []uint64
}

// Recover materializes the crash and recovers the instances in waves, each
// wave one recovery thread taking its instances in ascending index. Wave 0 —
// the instances listed in first; nil means all of them — is drivers.Recover
// (nestedAt as there) on the wave's lowest instance, the others recovered
// from its then hook, so a nested crash re-runs the whole wave. The remaining
// instances recover on a later scheduler installed on the machine wave 0 left
// behind. With K > 1 an error names the instance
// whose recovery answered with it.
func (m *Machine) Recover(nestedAt func(attempt int) uint64, first []int) (Recovered, error) {
	K := len(m.Drivers)
	out := Recovered{Replayed: make([]uint64, K)}
	early := make([]bool, K) // wave 0's members
	for k := range early {
		early[k] = first == nil
	}
	for _, k := range first {
		early[k] = true
	}
	lead := slices.Index(early, true)
	failed := lead // whose recovery an error is from: the lead's unless wave says otherwise
	// wave recovers, from index from up, the instances of wave 0 (or, with
	// late, the others) and returns the virtual time it took.
	wave := func(t *sim.Thread, sys *nvm.System, from int, late bool) (uint64, error) {
		start := t.Clock()
		for k := from; k < K; k++ {
			if early[k] == late {
				continue
			}
			eng, info, err := m.Drivers[k].Recover(t, sys)
			if err != nil {
				failed = k
				return 0, err
			}
			m.Engines[k], out.Replayed[k] = eng, info.Replayed
		}
		return t.Clock() - start, nil
	}

	var rest uint64
	rec, err := drivers.Recover(m.Drivers[lead], m.Sys, nestedAt,
		func(t *sim.Thread, sys *nvm.System, eng uc.UC) (err error) {
			m.Engines[lead] = eng
			rest, err = wave(t, sys, lead+1, false)
			return err
		})
	m.Sys = rec.Sys
	out.Attempts, out.NestedCrashes = rec.Attempts, rec.NestedCrashes
	out.Replayed[lead] = rec.Info.Replayed
	out.VirtualNS = rec.VirtualNS + rest
	if err == nil && slices.Contains(early, false) {
		if perr := drivers.Probe(m.Sys, func(t *sim.Thread) {
			rest, err = wave(t, m.Sys, 0, true)
			out.VirtualNS += rest
		}); err == nil {
			err = perr
		}
	}
	if err != nil && K > 1 {
		err = fmt.Errorf("instance %d: %w", failed, err)
	}
	return out, err
}

// ProbeState reads back, on one throwaway timeline, instance k's value of
// every key in keys[k] and its Size: state[k] holds the keys present, and
// foreign[k] counts the keys the instance holds beyond them — keys no
// operation of the probed range explains, such as another instance's
// writes resurrected by recovery. The error is a read walk's panic
// (drivers.Probe).
func (m *Machine) ProbeState(keys [][]uint64) (state []map[uint64]uint64, foreign []uint64, err error) {
	state, foreign = make([]map[uint64]uint64, len(m.Engines)), make([]uint64, len(m.Engines))
	err = drivers.Probe(m.Sys, func(t *sim.Thread) {
		for k, eng := range m.Engines {
			state[k] = map[uint64]uint64{}
			for _, key := range keys[k] {
				if v := eng.Execute(t, 0, uc.Get(key)); v != uc.NotFound {
					state[k][key] = v
				}
			}
			foreign[k] = eng.Execute(t, 0, uc.Size()) - uint64(len(state[k]))
		}
	})
	return state, foreign, err
}

// CheckEpoch applies instance k's correctness condition to one epoch of
// its recorded set operations, from state init (nil: empty) to the
// recovered one: buffered durable with the ε+β−1 loss allowance, or strict
// durable.
func (m *Machine) CheckEpoch(k int, init any, ops []linearize.Op, recovered map[uint64]uint64) linearize.Result {
	d := m.Drivers[k]
	return linearize.CheckEpoch(linearize.SetModel(), init, ops, recovered,
		linearize.Options{Buffered: d.Buffered, Allowance: d.LossBound(m.Topology.ThreadsPerNode)})
}
