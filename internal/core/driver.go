package core

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ConfigFor maps a harness sizing to the engine configuration in the given
// mode. Volatile mode has nothing to persist, so ε and descriptors are
// dropped there.
func ConfigFor(mode Mode, sz uc.Sizing) Config {
	cfg := Config{
		Mode: mode, Topology: sz.Topology, Workers: sz.Workers,
		LogSize: sz.LogSize, Epsilon: sz.Epsilon,
		Factory: sz.Object.New, Attacher: sz.Object.Attach,
		HeapWords: sz.HeapWords,
		Instance:  sz.Instance,
		Detect:    sz.Detect,
	}
	if !mode.Persistent() {
		cfg.Epsilon, cfg.Detect = 0, false
	}
	return cfg
}

// NewDriver builds the lifecycle descriptor of one PREP-UC engine. The
// persistent modes are the only drivers with auxiliary threads (the
// persistence loop) and, with cfg.Detect, the only detectable ones; a
// Volatile driver is steady-only: no auxiliary threads and no Recover.
func NewDriver(cfg Config) *uc.Driver {
	d := &uc.Driver{Name: cfg.Mode.String(), Detect: cfg.Detect, Epsilon: cfg.Epsilon}
	var cur *PREP
	d.Boot = func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
		p, err := New(t, sys, cfg)
		if err != nil {
			return nil, err
		}
		cur = p
		return p, nil
	}
	if !cfg.Mode.Persistent() {
		d.Name = "PREP-Volatile"
		return d
	}
	d.Buffered = cfg.Mode == Buffered
	d.SpawnAux = func() { cur.SpawnPersistence(0) }
	d.StopAux = func(t *sim.Thread) { cur.StopPersistence(t) }
	d.Recover = func(t *sim.Thread, recSys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
		rec, report, err := Recover(t, recSys, cfg)
		if err != nil {
			return nil, uc.RecoverInfo{}, err
		}
		cur = rec
		return rec, uc.RecoverInfo{Replayed: report.Replayed, Resolved: report.Resolved}, nil
	}
	return d
}
