package harness

import (
	"prepuc/internal/core"
	"prepuc/internal/cxpuc"
	"prepuc/internal/gluc"
	"prepuc/internal/nvm"
	"prepuc/internal/onll"
	"prepuc/internal/sim"
	"prepuc/internal/soft"
	"prepuc/internal/uc"
)

// sizing maps the scale to the construction sizing of one figure cell:
// every construction of a figure gets the same per-replica heap, SOFT two
// regions of 16 words per key.
func (sc Scale) sizing(workers int, obj uc.ObjectType, heapWords uint64) uc.Sizing {
	softWords := sc.KeyRange * 16
	if softWords < 1<<18 {
		softWords = 1 << 18
	}
	return uc.Sizing{
		Topology: sc.Topology, Workers: workers, Object: obj,
		LogSize: sc.LogSize, HeapWords: heapWords,
		CXHeapWords: heapWords, CXQueueCap: sc.CXQueueCap, CXCapReplicas: sc.CXCapReplicas,
		SoftWords:      softWords,
		ONLLLogEntries: sc.ONLLLogEntries,
	}
}

// drivenSystem is a PREP engine booted through its driver, whose auxiliary
// thread lifecycle (the persistence thread) it exposes as Background.
type drivenSystem struct {
	*core.PREP
	d *uc.Driver
}

func (s drivenSystem) SpawnBackground() {
	if s.d.SpawnAux != nil {
		s.d.SpawnAux()
	}
}

func (s drivenSystem) StopBackground(t *sim.Thread) {
	if s.d.StopAux != nil {
		s.d.StopAux(t)
	}
}

// PREPBuilder builds PREP-V / PREP-Buffered / PREP-Durable around the given
// sequential object type.
func PREPBuilder(mode core.Mode, epsilon uint64, obj uc.ObjectType, heapWords func(Scale) uint64) BuildFunc {
	return PREPAblationBuilder(mode, epsilon, obj, heapWords, func(*core.Config) {})
}

// GLBuilder builds the global-lock baseline.
func GLBuilder(obj uc.ObjectType, heapWords func(Scale) uint64) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		return gluc.New(t, sys, gluc.Config{
			Factory:   obj.New,
			HeapWords: heapWords(sc),
		}), nil
	}
}

// CXBuilder builds the CX-PUC baseline.
func CXBuilder(obj uc.ObjectType, heapWords func(Scale) uint64) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		return cxpuc.New(t, sys, cxpuc.ConfigFor(sc.sizing(workers, obj, heapWords(sc))))
	}
}

// SOFTBuilder builds the hand-crafted SOFT hashtable baseline.
func SOFTBuilder(buckets func(Scale) uint64) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		sz := sc.sizing(workers, uc.ObjectType{}, 0)
		sz.SoftBuckets = buckets(sc)
		return soft.New(t, sys, soft.ConfigFor(sz)), nil
	}
}

// ONLLBuilder builds the ONLL extension baseline (per-thread persistent
// logs, durable linearizability).
func ONLLBuilder(obj uc.ObjectType, heapWords func(Scale) uint64) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		return onll.New(t, sys, onll.ConfigFor(sc.sizing(workers, obj, heapWords(sc))))
	}
}

// PREPAblationBuilder exposes the engine's ablation switches: mut edits the
// configuration the scale maps to before the engine is built.
func PREPAblationBuilder(mode core.Mode, epsilon uint64, obj uc.ObjectType,
	heapWords func(Scale) uint64, mut func(*core.Config)) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		sz := sc.sizing(workers, obj, heapWords(sc))
		sz.Epsilon = epsilon
		cfg := core.ConfigFor(mode, sz)
		mut(&cfg)
		d := core.NewDriver(cfg)
		eng, err := d.Boot(t, sys)
		if err != nil {
			return nil, err
		}
		return drivenSystem{eng.(*core.PREP), d}, nil
	}
}
