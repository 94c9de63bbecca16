package gluc

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ConfigFor maps a harness sizing to GL's configuration: the single copy
// gets PREP-UC's per-replica heap.
func ConfigFor(sz uc.Sizing) Config {
	return Config{Object: sz.Object, HeapWords: sz.HeapWords}
}

// NewDriver builds the lifecycle descriptor of one GL instance: volatile,
// so steady-only — no auxiliary threads and no Recover.
func NewDriver(cfg Config) *uc.Driver {
	return &uc.Driver{
		Name: "GL",
		Boot: func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
			return New(t, sys, cfg), nil
		},
	}
}
