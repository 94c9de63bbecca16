package harness

import (
	"prepuc/internal/numa"
	"prepuc/internal/sim"
)

// Scale groups the size parameters of a full evaluation run. Small is the
// default (CI-friendly, minutes); Paper reproduces the evaluation's sizes
// (1M keys, 1M-entry log, 96 hardware threads) and takes correspondingly
// longer and more memory.
type Scale struct {
	Name     string
	Topology numa.Topology
	Costs    sim.Costs
	// Threads is the sweep of worker counts (the figures' x axis).
	Threads []int
	// DurationNS is the measured virtual time per point (the paper measures
	// 10 wall seconds; virtual time is deterministic so shorter suffices).
	DurationNS uint64
	// KeyRange is the set workloads' key universe (paper: 1M).
	KeyRange uint64
	// LogSize is the shared log capacity (paper: 1M).
	LogSize uint64
	// EpsSmall and EpsLarge are the two ε values of Figure 2 (paper: 100
	// and 10000 = 1% of the log).
	EpsSmall, EpsLarge uint64
	// EpsSweep is Figure 3's ε axis.
	EpsSweep []uint64
	// PQSmall/PQLarge are Figure 4's priority-queue prefills (paper: 50k
	// and 500k) with their ε values.
	PQSmall, PQLarge       uint64
	PQSmallEps, PQLargeEps uint64
	// StackSmall/StackLarge are Figure 5's stack prefills (paper: 500, 50k).
	// StackEps is the figure's ε (paper: 10000); StackSmallEps adds the
	// small-ε series showing §6's "when ε is small CX-PUC outperforms
	// PREP-UC" crossover on the tiny stack.
	StackSmall, StackLarge  uint64
	StackEps, StackSmallEps uint64
	// SoftSmallBuckets/SoftLargeBuckets are Figure 6's SOFT variants
	// (paper: 1k and 10k buckets).
	SoftSmallBuckets, SoftLargeBuckets uint64
	// CXCapReplicas bounds CX-PUC's replica count (0 = the original 2n).
	CXCapReplicas int
	// CXQueueCap sizes CX-PUC's operation queue for the run.
	CXQueueCap uint64
	// ONLLLogEntries sizes ONLL's per-thread persistent logs for the run.
	ONLLLogEntries uint64
}

// SmallScale is the default: every structural feature of the evaluation at
// 1/64th the size, so the whole figure suite runs in minutes.
func SmallScale() Scale {
	return Scale{
		Name:             "small",
		Topology:         numa.Topology{Nodes: 2, ThreadsPerNode: 8},
		Costs:            sim.DefaultCosts(),
		Threads:          []int{1, 2, 4, 8, 12, 16},
		DurationNS:       2_000_000, // 2 virtual ms
		KeyRange:         1 << 14,
		LogSize:          1 << 14,
		EpsSmall:         100,
		EpsLarge:         2048,
		EpsSweep:         []uint64{100, 512, 2048, 8192},
		PQSmall:          1 << 10,
		PQLarge:          1 << 13,
		PQSmallEps:       100,
		PQLargeEps:       2048,
		StackSmall:       64,
		StackLarge:       1 << 10,
		StackEps:         2048,
		StackSmallEps:    32,
		SoftSmallBuckets: 64,
		SoftLargeBuckets: 1024,
		CXCapReplicas:    8,
		CXQueueCap:       1 << 21,
		ONLLLogEntries:   1 << 14,
	}
}

// PaperScale mirrors the evaluation's published parameters. Expect a long
// run and several GB of simulated memory.
func PaperScale() Scale {
	return Scale{
		Name:             "paper",
		Topology:         numa.Paper(),
		Costs:            sim.DefaultCosts(),
		Threads:          []int{1, 8, 16, 24, 48, 72, 95},
		DurationNS:       10_000_000, // 10 virtual ms
		KeyRange:         1 << 20,
		LogSize:          1 << 20,
		EpsSmall:         100,
		EpsLarge:         10_000,
		EpsSweep:         []uint64{100, 1000, 10_000, 100_000},
		PQSmall:          50_000,
		PQLarge:          500_000,
		PQSmallEps:       1000,
		PQLargeEps:       10_000,
		StackSmall:       500,
		StackLarge:       50_000,
		StackEps:         10_000,
		StackSmallEps:    100,
		SoftSmallBuckets: 1000,
		SoftLargeBuckets: 10_000,
		CXCapReplicas:    4,
		CXQueueCap:       1 << 24,
		ONLLLogEntries:   1 << 15,
	}
}

// TinyScale is `prepbench -scale tiny` and the tests' size: one data point
// must finish in well under a second.
func TinyScale() Scale {
	sc := SmallScale()
	sc.Name = "tiny"
	sc.Topology = numa.Topology{Nodes: 2, ThreadsPerNode: 4}
	sc.Threads = []int{4}
	sc.DurationNS = 300_000
	sc.KeyRange = 1 << 10
	sc.LogSize = 1 << 10
	sc.EpsSmall = 32
	sc.EpsLarge = 256
	sc.EpsSweep = []uint64{32, 128, 512}
	sc.PQSmall = 256
	sc.PQLarge = 1024
	sc.PQSmallEps = 32
	sc.PQLargeEps = 256
	sc.StackSmall = 32
	sc.StackLarge = 256
	sc.StackEps = 256
	sc.StackSmallEps = 16
	sc.SoftSmallBuckets = 32
	sc.SoftLargeBuckets = 256
	sc.CXCapReplicas = 4
	sc.CXQueueCap = 1 << 18
	sc.ONLLLogEntries = 1 << 12
	return sc
}

// setHeapWords sizes a per-replica heap for a key-set structure.
func (sc Scale) setHeapWords() uint64 {
	w := sc.KeyRange * 40
	if w < 1<<16 {
		w = 1 << 16
	}
	return w
}

// containerHeapWords sizes a heap for a container prefilled with n items.
func containerHeapWords(n uint64) uint64 {
	w := n * 24
	if w < 1<<16 {
		w = 1 << 16
	}
	return w
}
