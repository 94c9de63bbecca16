package explore

// The explorer drives constructions through the shared registry
// (internal/drivers) at explorer scale; only the machine shape is its own.

import (
	"fmt"

	"prepuc/internal/drivers"
	"prepuc/internal/numa"
	"prepuc/internal/runflag"
	"prepuc/internal/uc"
)

// mkDriver builds a fresh driver for the configured system. One driver is
// bound to one machine lineage (boot through its recovery chain); never
// share instances across machines.
func mkDriver(cfg *Config) (*uc.Driver, error) {
	e, err := drivers.Lookup(drivers.Recoverable(), cfg.System)
	if err != nil {
		return nil, runflag.Usage(fmt.Errorf("explore: %w", err))
	}
	sz := drivers.ExploreScale()
	sz.Topology, sz.Workers, sz.Detect = cfg.topology(), cfg.Workers, cfg.Detect
	sz.LogSize, sz.Epsilon = cfg.LogSize, cfg.Epsilon
	sz.HeapWords, sz.CXHeapWords, sz.SoftWords = cfg.HeapWords, cfg.HeapWords, cfg.HeapWords
	return e.New(sz), nil
}

func (cfg *Config) topology() numa.Topology {
	nodes := cfg.Nodes
	if nodes > cfg.Workers {
		nodes = cfg.Workers
	}
	return numa.Topology{Nodes: nodes, ThreadsPerNode: (cfg.Workers + nodes - 1) / nodes}
}
