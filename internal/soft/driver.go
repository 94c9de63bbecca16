package soft

import (
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// ConfigFor maps a harness sizing to SOFT's configuration.
func ConfigFor(sz uc.Sizing) Config {
	return Config{Buckets: sz.SoftBuckets, VolatileWords: sz.SoftWords, PersistentWords: sz.SoftWords}
}

// NewDriver builds the lifecycle descriptor of one SOFT hashtable: no
// auxiliary threads, strict durable linearizability; Replayed counts the
// keys the slab scan re-inserted.
func NewDriver(cfg Config) *uc.Driver {
	return &uc.Driver{
		Name: "SOFT",
		Boot: func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
			return New(t, sys, cfg), nil
		},
		Recover: func(t *sim.Thread, recSys *nvm.System) (uc.UC, uc.RecoverInfo, error) {
			rec, replayed, err := Recover(t, recSys, cfg)
			return rec, uc.RecoverInfo{Replayed: replayed}, err
		},
	}
}
