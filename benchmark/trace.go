package main

// trace.go keeps the traced pass's spans in memory and writes them out when
// the invocation ends. A span has a start and an end on both clocks and the
// span that caused it. Spans are recorded from this package only, around
// the calls into each layer; nothing inside the program is instrumented.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval. Host times are nanoseconds since the invocation
// started; virtual times are the simulated thread's clock (0 where the span
// has no simulated thread, e.g. schedule generation).
type span struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"` // -1 for a top-level span
	Name     string    `json:"name"`
	Workload string    `json:"workload"`
	HostNS   [2]int64  `json:"host_ns"`
	VirtNS   [2]uint64 `json:"virtual_ns"`
}

// rawSpan is one per-op or per-batch virtual interval from the engine
// wrapper; the first maxRaw are kept verbatim, all of them are aggregated
// into the latency slices of the probes.
type rawSpan struct {
	Kind   string    `json:"kind"` // "update", "read" or "batch"
	Tid    int       `json:"tid"`
	Ops    int       `json:"ops"`
	VirtNS [2]uint64 `json:"virtual_ns"`
}

const maxRaw = 1000

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	raw      []rawSpan
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span now and returns its id.
func (tr *tracer) begin(name string, parent int, vnow uint64) int {
	return tr.beginAt(name, parent, time.Now(), vnow)
}

// beginAt opens a span whose start was stamped earlier.
func (tr *tracer) beginAt(name string, parent int, at time.Time, vnow uint64) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Name: name, Workload: tr.workload,
		HostNS: [2]int64{int64(at.Sub(tr.t0)), 0}, VirtNS: [2]uint64{vnow, 0},
	})
	return id
}

func (tr *tracer) end(id int, vnow uint64) { tr.endAt(id, time.Now(), vnow) }

func (tr *tracer) endAt(id int, at time.Time, vnow uint64) {
	tr.spans[id].HostNS[1] = int64(at.Sub(tr.t0))
	tr.spans[id].VirtNS[1] = vnow
}

func (tr *tracer) keepRaw(kind string, tid, ops int, start, end uint64) {
	if len(tr.raw) < maxRaw {
		tr.raw = append(tr.raw, rawSpan{Kind: kind, Tid: tid, Ops: ops, VirtNS: [2]uint64{start, end}})
	}
}

// topLevelHostS sums the host durations of the top-level spans. They are
// sequential, so the sum is the invocation's accounted wall.
func (tr *tracer) topLevelHostS() float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Parent < 0 {
			ns += s.HostNS[1] - s.HostNS[0]
		}
	}
	return float64(ns) / 1e9
}

// write dumps the spans to dir/trace-<workload>.json.
func (tr *tracer) write(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []span    `json:"spans"`
		Raw      []rawSpan `json:"raw_virtual_spans"`
	}{tr.workload, seed, tr.spans, tr.raw}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tr.workload+".json"), b, 0o644)
}

// quantile returns the q-quantile of the sorted vs by exact rank (the
// smallest value with at least ceil(q*n) samples at or below it); 0 on an
// empty slice.
func quantile(vs []uint64, q float64) uint64 {
	if len(vs) == 0 {
		return 0
	}
	rank := int(q * float64(len(vs)))
	if float64(rank) < q*float64(len(vs)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return vs[rank-1]
}

func sum(vs []uint64) uint64 {
	var s uint64
	for _, v := range vs {
		s += v
	}
	return s
}

// median of host samples; 0 on an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
