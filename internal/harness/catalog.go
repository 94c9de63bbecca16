package harness

import (
	"fmt"
	"sort"

	"prepuc/internal/core"
	"prepuc/internal/drivers"
	"prepuc/internal/gluc"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

// registered is the driver constructor of the construction registered under
// flag in internal/drivers.
func registered(flag string) func(uc.Sizing) *uc.Driver {
	e, err := drivers.Lookup(drivers.All(), flag)
	if err != nil {
		panic(err)
	}
	return e.New
}

// glDriver is the global-lock baseline's driver constructor. GL is not
// registered: it has no recovery path and no -system spelling.
func glDriver(sz uc.Sizing) *uc.Driver { return gluc.NewDriver(gluc.ConfigFor(sz)) }

// prepCurve is the curve of the registered PREP driver spelled flag at
// flush-boundary increment eps.
func prepCurve(flag string, eps uint64, obj uc.ObjectType, heapWords uint64) BuildFunc {
	return curve(registered(flag), obj, heapWords, func(sz *uc.Sizing) { sz.Epsilon = eps })
}

// Catalog returns every figure of the paper's evaluation, parameterized by
// scale, keyed by figure ID (fig1a … fig6b plus the ablations of DESIGN.md
// §6). The per-experiment index in DESIGN.md documents the mapping. Every
// curve boots its construction's uc.Driver at the cell's sizing (curve).
func Catalog(sc Scale) map[string]Figure {
	setHeap := sc.setHeapWords()
	hashmap := seq.HashMapType(sc.KeyRange / 8)
	softCurve := func(buckets uint64) BuildFunc {
		return curve(registered("soft"), uc.ObjectType{}, 0, func(sz *uc.Sizing) { sz.SoftBuckets = buckets })
	}
	// ablation edits the buffered engine's configuration before its driver
	// is made.
	ablation := func(eps uint64, mut func(*core.Config)) BuildFunc {
		return curve(func(sz uc.Sizing) *uc.Driver {
			cfg := core.ConfigFor(core.Buffered, sz)
			mut(&cfg)
			return core.NewDriver(cfg)
		}, hashmap, setHeap, func(sz *uc.Sizing) { sz.Epsilon = eps })
	}
	figs := map[string]Figure{}

	// --- Figure 1: volatile UCs (PREP-V vs Global Lock). ---
	figs["fig1a"] = Figure{
		ID: "fig1a", Title: "Volatile UCs, hashmap, 90% read-only",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-V", prepCurve("prep-volatile", 0, hashmap, setHeap)},
			{"GL", curve(glDriver, hashmap, setHeap, nil)},
		},
		ExpectedShape: "PREP-V scales with threads; GL stays flat or degrades",
	}
	figs["fig1b"] = Figure{
		ID: "fig1b", Title: "Volatile UCs, red-black tree, 90% read-only",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-V", prepCurve("prep-volatile", 0, seq.RBTreeType(), setHeap)},
			{"GL", curve(glDriver, seq.RBTreeType(), setHeap, nil)},
		},
		ExpectedShape: "PREP-V scales with threads; GL stays flat or degrades",
	}
	queueHeap := containerHeapWords(1 << 16)
	figs["fig1c"] = Figure{
		ID: "fig1c", Title: "Volatile UCs, FIFO queue, 100% update (enq+deq pairs)",
		Workload: workload.PairsSpec(uc.OpEnqueue, uc.OpDequeue, 1024),
		Algos: []AlgoSpec{
			{"PREP-V", prepCurve("prep-volatile", 0, seq.QueueType(), queueHeap)},
			{"GL", curve(glDriver, seq.QueueType(), queueHeap, nil)},
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
				{fmt.Sprintf("PREP-Buffered(e=%d)", sc.EpsSmall), prepCurve("prep-buffered", sc.EpsSmall, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Durable(e=%d)", sc.EpsSmall), prepCurve("prep-durable", sc.EpsSmall, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Buffered(e=%d)", sc.EpsLarge), prepCurve("prep-buffered", sc.EpsLarge, sub.obj, setHeap)},
				{fmt.Sprintf("PREP-Durable(e=%d)", sc.EpsLarge), prepCurve("prep-durable", sc.EpsLarge, sub.obj, setHeap)},
				{"CX-PUC", curve(registered("cx"), sub.obj, setHeap, nil)},
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
			AlgoSpec{fmt.Sprintf("PREP-Buffered(e=%d)", eps), prepCurve("prep-buffered", eps, hashmap, setHeap)},
			AlgoSpec{fmt.Sprintf("PREP-Durable(e=%d)", eps), prepCurve("prep-durable", eps, hashmap, setHeap)},
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
		heap := containerHeapWords(sub.prefill * 4)
		figs[sub.id] = Figure{
			ID: sub.id, Title: fmt.Sprintf("Priority queue, %d items, ε=%d, 100%% update", sub.prefill, sub.eps),
			Workload: workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, sub.prefill),
			Algos: []AlgoSpec{
				{"PREP-Buffered", prepCurve("prep-buffered", sub.eps, seq.PQueueType(), heap)},
				{"PREP-Durable", prepCurve("prep-durable", sub.eps, seq.PQueueType(), heap)},
				{"CX-PUC", curve(registered("cx"), seq.PQueueType(), heap, nil)},
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
		heap := containerHeapWords(sub.prefill * 8)
		algos := []AlgoSpec{
			{"PREP-Buffered", prepCurve("prep-buffered", sc.StackEps, seq.StackType(), heap)},
			{"PREP-Durable", prepCurve("prep-durable", sc.StackEps, seq.StackType(), heap)},
			{"CX-PUC", curve(registered("cx"), seq.StackType(), heap, nil)},
		}
		if sub.id == "fig5a" {
			// §6: on the tiny stack, CX-PUC's range flush beats PREP-UC's
			// frequent WBINVD when ε is small.
			algos = append(algos,
				AlgoSpec{fmt.Sprintf("PREP-Buffered(e=%d)", sc.StackSmallEps),
					prepCurve("prep-buffered", sc.StackSmallEps, seq.StackType(), heap)},
				AlgoSpec{fmt.Sprintf("PREP-Durable(e=%d)", sc.StackSmallEps),
					prepCurve("prep-durable", sc.StackSmallEps, seq.StackType(), heap)},
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
				{"PREP-Buffered", prepCurve("prep-buffered", sc.EpsLarge, hashmap, setHeap)},
				{"PREP-Durable", prepCurve("prep-durable", sc.EpsLarge, hashmap, setHeap)},
				{"SOFT-smallB", softCurve(sc.SoftSmallBuckets)},
				{"SOFT-largeB", softCurve(sc.SoftLargeBuckets)},
			},
			ExpectedShape: "SOFT above PREP-UC, especially update-heavy; gap grows at 50% reads",
		}
	}

	// --- Ablations (DESIGN.md §6). ---
	figs["ablation-batching"] = Figure{
		ID: "ablation-batching", Title: "Flat combining vs per-op log CAS (PREP-Buffered)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"batching", prepCurve("prep-buffered", sc.EpsLarge, hashmap, setHeap)},
			{"no-batching", ablation(sc.EpsLarge, func(c *core.Config) { c.NoBatching = true })},
		},
		ExpectedShape: "batching wins at higher thread counts",
	}
	figs["ablation-flush"] = Figure{
		ID: "ablation-flush", Title: "WBINVD vs per-dirty-line checkpoint (PREP-Buffered)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"wbinvd", prepCurve("prep-buffered", sc.EpsSmall, hashmap, setHeap)},
			{"per-line", ablation(sc.EpsSmall, func(c *core.Config) { c.PerLineFlush = true })},
		},
		ExpectedShape: "per-line flush (needs write tracking a PUC lacks) beats WBINVD at small ε",
	}
	// --- Extension: ONLL (the other PUC, from the paper's related work). ---
	figs["ext-onll"] = Figure{
		ID: "ext-onll", Title: "PREP-UC vs ONLL (per-thread persistent logs), 90% read-only hashmap",
		Workload: workload.SetSpec(90, sc.KeyRange),
		Algos: []AlgoSpec{
			{"PREP-Buffered", prepCurve("prep-buffered", sc.EpsLarge, hashmap, setHeap)},
			{"PREP-Durable", prepCurve("prep-durable", sc.EpsLarge, hashmap, setHeap)},
			{"ONLL", curve(registered("onll"), hashmap, setHeap, nil)},
		},
		ExpectedShape: "ONLL's flush-free reads are competitive at 90% reads, but its serialized updates and per-op logging cap scaling below PREP; its recovery replays the whole history (see ext-recovery)",
	}

	// Flush elision is a substrate switch, not an engine one: the
	// always-flush cell turns it off on its machine before the engine boots.
	elide := prepCurve("prep-durable", sc.EpsLarge, hashmap, setHeap)
	figs["ablation-flushelide"] = Figure{
		ID: "ablation-flushelide", Title: "FliT-style flush elision (PREP-Durable)",
		Workload: workload.SetSpec(50, sc.KeyRange),
		Algos: []AlgoSpec{
			{"elide", elide},
			{"always-flush", func(t *sim.Thread, sys *nvm.System, sc Scale, workers int) (System, error) {
				sys.SetFlushElision(false)
				return elide(t, sys, sc, workers)
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
