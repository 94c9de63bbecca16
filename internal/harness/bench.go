package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchSchema identifies the machine-readable bench output format. Bump the
// version suffix on any incompatible change to BenchDoc or its nested
// structures; consumers must check it before interpreting the document.
const BenchSchema = "prepuc-bench/v2"

// BenchDoc is the machine-readable result of one prepbench invocation: run
// parameters plus every experiment's points, each carrying the metrics
// snapshot of its measurement phase.
type BenchDoc struct {
	Schema     string `json:"schema"`
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	Topology   string `json:"topology"` // "NODESxTHREADS_PER_NODE"
	DurationNS uint64 `json:"duration_ns"`

	Experiments []BenchExperiment `json:"experiments"`
}

// BenchExperiment is one figure's worth of results. Throughput figures fill
// Points; the recovery extension fills Recovery.
type BenchExperiment struct {
	Figure        string          `json:"figure"`
	Title         string          `json:"title"`
	ExpectedShape string          `json:"expected_shape,omitempty"`
	Points        []Point         `json:"points,omitempty"`
	Recovery      []RecoveryPoint `json:"recovery,omitempty"`
}

// NewBenchDoc starts a document for a run at the given scale and seed.
func NewBenchDoc(sc Scale, seed int64) *BenchDoc {
	return &BenchDoc{
		Schema:     BenchSchema,
		Scale:      sc.Name,
		Seed:       seed,
		Topology:   fmt.Sprintf("%dx%d", sc.Topology.Nodes, sc.Topology.ThreadsPerNode),
		DurationNS: sc.DurationNS,
	}
}

// AddFigure appends a throughput experiment's points.
func (d *BenchDoc) AddFigure(fig Figure, points []Point) {
	d.Experiments = append(d.Experiments, BenchExperiment{
		Figure:        fig.ID,
		Title:         fig.Title,
		ExpectedShape: fig.ExpectedShape,
		Points:        points,
	})
}

// AddRecovery appends the recovery extension experiment's points.
func (d *BenchDoc) AddRecovery(points []RecoveryPoint) {
	d.Experiments = append(d.Experiments, BenchExperiment{
		Figure:   "ext-recovery",
		Title:    "Recovery time: PREP-Durable ε windows vs ONLL full-history replay",
		Recovery: points,
	})
}

// WriteJSON emits a document (bench, crash or serve) as indented JSON.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
