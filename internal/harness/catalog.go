package harness

import (
	"fmt"
	"sort"

	"prepuc/internal/core"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// Catalog returns every figure of the paper's evaluation, parameterized by
// scale, keyed by figure ID (fig1a … fig6b plus the ablations of DESIGN.md
// §6). The per-experiment index in DESIGN.md documents the mapping. Each
// structure appears as one uc.ObjectType descriptor; builders receive the
// descriptor whole instead of parallel factory/attacher arguments.
func Catalog(sc Scale) map[string]Figure {
	setHeap := func(s Scale) uint64 { return s.setHeapWords() }
	hashmap := seq.HashMapType(sc.KeyRange / 8)
	figs := map[string]Figure{}

	// --- Figure 1: volatile UCs (PREP-V vs Global Lock). ---
	figs["fig1a"] = Figure{
		ID: "fig1a", Title: "Volatile UCs, hashmap, 90% read-only",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-V", PREPBuilder(core.Volatile, 0, hashmap, setHeap)},
			{"GL", GLBuilder(hashmap, setHeap)},
		},
		ExpectedShape: "PREP-V scales with threads; GL stays flat or degrades",
	}
	figs["fig1b"] = Figure{
		ID: "fig1b", Title: "Volatile UCs, red-black tree, 90% read-only",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-V", PREPBuilder(core.Volatile, 0, seq.RBTreeType(), setHeap)},
			{"GL", GLBuilder(seq.RBTreeType(), setHeap)},
		},
		ExpectedShape: "PREP-V scales with threads; GL stays flat or degrades",
	}
	queueHeap := func(s Scale) uint64 { return containerHeapWords(1 << 16) }
	figs["fig1c"] = Figure{
		ID: "fig1c", Title: "Volatile UCs, FIFO queue, 100% update (enq+deq pairs)",
		Workload: workload.PairsSpec(uc.OpEnqueue, uc.OpDequeue, 1024),
		Algos: []AlgoSpec{
			{"PREP-V", PREPBuilder(core.Volatile, 0, seq.QueueType(), queueHeap)},
			{"GL", GLBuilder(seq.QueueType(), queueHeap)},
		},
		ExpectedShape: "PREP-V above GL; neither scales strongly at 100% updates",
	}

	// --- Figure 2: PUCs on hashmap and red-black tree, ε ∈ {small, large}. ---
	for _, sub := range []struct {
		id, name string
		obj      uc.ObjectType
	}{
		{"fig2a", "resizable hashmap", hashmap},
		{"fig2b", "red-black tree", seq.RBTreeType()},
	} {
		figs[sub.id] = Figure{
			ID: sub.id, Title: fmt.Sprintf("PUCs, %s, 90%% read-only, 1M-key style", sub.name),
			Workload: workload.SetSpec(90, sc.KeyRange),
			Algos: []AlgoSpec{
				{fmt.Sprintf("PREP-Buffered(e=%d)", sc.EpsSmall), PREPBuilder(core.Buffered, sc.EpsSmall, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Durable(e=%d)", sc.EpsSmall), PREPBuilder(core.Durable, sc.EpsSmall, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Buffered(e=%d)", sc.EpsLarge), PREPBuilder(core.Buffered, sc.EpsLarge, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Durable(e=%d)", sc.EpsLarge), PREPBuilder(core.Durable, sc.EpsLarge, sub.obj, setHeap)},
				{"CX-PUC", CXBuilder(sub.obj, setHeap)},
			},
			ExpectedShape: "CX-PUC far below both PREP variants; small ε makes Buffered≈Durable; large ε widens the gap and lifts both",
		}
	}

	// --- Figure 3: ε sweep on the hashmap. ---
	fig3 := Figure{
		ID: "fig3", Title: "PREP-UC hashmap throughput across ε, 90% read-only",
		Workload:      workload.SetSpec(90, sc.KeyRange),
		ExpectedShape: "throughput increases with ε, saturating near 1% of the log size",
	}
	for _, eps := range sc.EpsSweep {
		fig3.Algos = append(fig3.Algos,
			AlgoSpec{fmt.Sprintf("PREP-Buffered(e=%d)", eps), PREPBuilder(core.Buffered, eps, hashmap, setHeap)},
			AlgoSpec{fmt.Sprintf("PREP-Durable(e=%d)", eps), PREPBuilder(core.Durable, eps, hashmap, setHeap)},
		)
	}
	figs["fig3"] = fig3

	// --- Figure 4: priority queue, 100% update pairs. ---
	for _, sub := range []struct {
		id      string
		prefill uint64
		eps     uint64
	}{
		{"fig4a", sc.PQSmall, sc.PQSmallEps},
		{"fig4b", sc.PQLarge, sc.PQLargeEps},
	} {
		heap := func(n uint64) func(Scale) uint64 {
			return func(Scale) uint64 { return containerHeapWords(n * 4) }
		}(sub.prefill)
		figs[sub.id] = Figure{
			ID: sub.id, Title: fmt.Sprintf("Priority queue, %d items, ε=%d, 100%% update", sub.prefill, sub.eps),
			Workload: workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, sub.prefill),
			Algos: []AlgoSpec{
				{"PREP-Buffered", PREPBuilder(core.Buffered, sub.eps, seq.PQueueType(), heap)},
				{"PREP-Durable", PREPBuilder(core.Durable, sub.eps, seq.PQueueType(), heap)},
				{"CX-PUC", CXBuilder(seq.PQueueType(), heap)},
			},
			ExpectedShape: "small structure+small ε narrows PREP's lead; large ε lets PREP-Buffered pull far ahead",
		}
	}

	// --- Figure 5: stack, 100% update pairs. ---
	for _, sub := range []struct {
		id      string
		prefill uint64
	}{
		{"fig5a", sc.StackSmall},
		{"fig5b", sc.StackLarge},
	} {
		heap := func(n uint64) func(Scale) uint64 {
			return func(Scale) uint64 { return containerHeapWords(n * 8) }
		}(sub.prefill)
		algos := []AlgoSpec{
			{"PREP-Buffered", PREPBuilder(core.Buffered, sc.StackEps, seq.StackType(), heap)},
			{"PREP-Durable", PREPBuilder(core.Durable, sc.StackEps, seq.StackType(), heap)},
			{"CX-PUC", CXBuilder(seq.StackType(), heap)},
		}
		if sub.id == "fig5a" {
			// §6: on the tiny stack, CX-PUC's range flush beats PREP-UC's
			// frequent WBINVD when ε is small.
			algos = append(algos,
				AlgoSpec{fmt.Sprintf("PREP-Buffered(e=%d)", sc.StackSmallEps),
					PREPBuilder(core.Buffered, sc.StackSmallEps, seq.StackType(), heap)},
				AlgoSpec{fmt.Sprintf("PREP-Durable(e=%d)", sc.StackSmallEps),
					PREPBuilder(core.Durable, sc.StackSmallEps, seq.StackType(), heap)},
			)
		}
		figs[sub.id] = Figure{
			ID: sub.id, Title: fmt.Sprintf("Stack, %d items, ε=%d, 100%% update", sub.prefill, sc.StackEps),
			Workload:      workload.PairsSpec(uc.OpPush, uc.OpPop, sub.prefill),
			Algos:         algos,
			ExpectedShape: "tiny stack + small ε favours CX-PUC's range flush; PREP-Buffered leads at large ε or once the stack is larger",
		}
	}

	// --- Figure 6: PREP-UC hashmap vs hand-crafted SOFT. ---
	for _, sub := range []struct {
		id      string
		readPct int
	}{
		{"fig6a", 90},
		{"fig6b", 50},
	} {
		figs[sub.id] = Figure{
			ID: sub.id, Title: fmt.Sprintf("PREP-UC hashmap vs SOFT, %d%% read-only", sub.readPct),
			Workload: workload.SetSpec(sub.readPct, sc.KeyRange),
			Algos: []AlgoSpec{
				{"PREP-Buffered", PREPBuilder(core.Buffered, sc.EpsLarge, hashmap, setHeap)},
				{"PREP-Durable", PREPBuilder(core.Durable, sc.EpsLarge, hashmap, setHeap)},
				{"SOFT-smallB", SOFTBuilder(func(s Scale) uint64 { return s.SoftSmallBuckets })},
				{"SOFT-largeB", SOFTBuilder(func(s Scale) uint64 { return s.SoftLargeBuckets })},
			},
			ExpectedShape: "SOFT above PREP-UC, especially update-heavy; gap grows at 50% reads",
		}
	}

	// --- Ablations (DESIGN.md §6). ---
	figs["ablation-batching"] = Figure{
		ID: "ablation-batching", Title: "Flat combining vs per-op log CAS (PREP-Buffered)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"batching", PREPBuilder(core.Buffered, sc.EpsLarge, hashmap, setHeap)},
			{"no-batching", PREPAblationBuilder(core.Buffered, sc.EpsLarge, hashmap, setHeap,
				func(c *core.Config) { c.NoBatching = true })},
		},
		ExpectedShape: "batching wins at higher thread counts",
	}
	figs["ablation-flush"] = Figure{
		ID: "ablation-flush", Title: "WBINVD vs per-dirty-line checkpoint (PREP-Buffered)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"wbinvd", PREPBuilder(core.Buffered, sc.EpsSmall, hashmap, setHeap)},
			{"per-line", PREPAblationBuilder(core.Buffered, sc.EpsSmall, hashmap, setHeap,
				func(c *core.Config) { c.PerLineFlush = true })},
		},
		ExpectedShape: "per-line flush (needs write tracking a PUC lacks) beats WBINVD at small ε",
	}
	// --- Extension: ONLL (the other PUC, from the paper's related work). ---
	figs["ext-onll"] = Figure{
		ID: "ext-onll", Title: "PREP-UC vs ONLL (per-thread persistent logs), 90% read-only hashmap",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-Buffered", PREPBuilder(core.Buffered, sc.EpsLarge, hashmap, setHeap)},
			{"PREP-Durable", PREPBuilder(core.Durable, sc.EpsLarge, hashmap, setHeap)},
			{"ONLL", ONLLBuilder(hashmap, setHeap)},
		},
		ExpectedShape: "ONLL's flush-free reads are competitive at 90% reads, but its serialized updates and per-op logging cap scaling below PREP; its recovery replays the whole history (see ext-recovery)",
	}

	// Flush elision is a substrate switch, not an engine one: the
	// always-flush cell turns it off on its machine before the engine boots.
	durable := PREPBuilder(core.Durable, sc.EpsLarge, hashmap, setHeap)
	figs["ablation-flushelide"] = Figure{
		ID: "ablation-flushelide", Title: "FliT-style flush elision (PREP-Durable)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"elide", durable},
			{"always-flush", func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
				sys.SetFlushElision(false)
				return durable(t, sys, sc, workers)
			}},
		},
		ExpectedShape: "elision matches or beats always-flush; flush_async drops, flushes_elided accounts for the delta",
	}
	return figs
}

// FigureIDs returns the catalog's keys in display order.
func FigureIDs(figs map[string]Figure) []string {
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
