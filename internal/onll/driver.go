package onll

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ConfigFor maps a harness sizing to ONLL's configuration.
func ConfigFor(sz uc.Sizing) Config {
	return Config{
		Workers: sz.Workers, Object: sz.Object,
		HeapWords: sz.HeapWords, LogEntries: sz.ONLLLogEntries,
	}
}

// NewDriver builds the lifecycle descriptor of one ONLL instance: no
// auxiliary threads, strict durable linearizability, full-history replay.
func NewDriver(cfg Config) *uc.Driver {
	return &uc.Driver{
		Name: "ONLL",
		Boot: func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
			return New(t, sys, cfg)
		},
		Recover: func(t *sim.Thread, recSys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
			rec, replayed, err := Recover(t, recSys, cfg)
			return rec, uc.RecoverInfo{Replayed: replayed}, err
		},
	}
}
