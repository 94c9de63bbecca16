package harness

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
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

// drivenSystem is a construction booted through its driver: the engine the
// harness prefills and drives, and the driver's auxiliary thread lifecycle
// (PREP's persistence thread) as Background, a no-op for drivers without
// auxiliary threads.
type drivenSystem struct {
	System
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

// curve is the one figure-curve builder: each cell boots the driver mk makes
// at the cell's sizing of obj with heapWords, after edit (when non-nil) has
// adjusted that sizing.
func curve(mk func(uc.Sizing) *uc.Driver, obj uc.ObjectType, heapWords uint64,
	edit func(*uc.Sizing)) BuildFunc {
	return func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
		sz := sc.sizing(workers, obj, heapWords)
		if edit != nil {
			edit(&sz)
		}
		d := mk(sz)
		eng, err := d.Boot(t, sys)
		if err != nil {
			return nil, err
		}
		return drivenSystem{eng.(System), d}, nil
	}
}
