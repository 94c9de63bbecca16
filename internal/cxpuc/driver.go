package cxpuc

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ConfigFor maps a harness sizing to CX-PUC's configuration.
func ConfigFor(sz uc.Sizing) Config {
	return Config{
		Workers: sz.Workers, Object: sz.Object,
		HeapWords: sz.CXHeapWords, QueueCapacity: sz.CXQueueCap, CapReplicas: sz.CXCapReplicas,
	}
}

// NewDriver builds the lifecycle descriptor of one CX-PUC instance: no
// auxiliary threads, strict durable linearizability, no replay count (its
// recovery attaches to the published replica).
func NewDriver(cfg Config) *uc.Driver {
	return &uc.Driver{
		Name: "CX-PUC",
		Boot: func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
			return New(t, sys, cfg)
		},
		Recover: func(t *sim.Thread, recSys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
			rec, err := Recover(t, recSys, cfg)
			return rec, uc.RecoverInfo{}, err
		},
	}
}
