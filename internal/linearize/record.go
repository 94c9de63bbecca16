package linearize

import (
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// Recorder captures an invoke/response history from concurrently executing
// workers. Each worker owns a private log, so recording adds no shared
// state to the measured path; timestamps come from the simulator's virtual
// clock, which the scheduler keeps consistent with real-time order across
// threads (minimum-clock-first dispatch).
//
// Crash safety: Invoke appends the operation as InFlight before the
// construction runs it. If a simulated crash unwinds the worker
// mid-operation the entry simply stays InFlight; the worker's recover
// handler never needs to touch the recorder.
type Recorder struct {
	logs [][]Op
}

// NewRecorder creates a recorder for the given number of clients.
func NewRecorder(clients int) *Recorder {
	return &Recorder{logs: make([][]Op, clients)}
}

// Exec records one operation around exec: the invoke timestamp before, the
// response and return timestamp after. It returns exec's result.
func (r *Recorder) Exec(t *sim.Thread, client int, op uc.Op, exec func() uint64) uint64 {
	log := &r.logs[client]
	*log = append(*log, Op{
		Client: client,
		Code:   op.Code, A0: op.A0, A1: op.A1,
		Invoke: t.Clock(), Return: ^uint64(0),
		Class: InFlight,
	})
	res := exec()
	rec := &(*log)[len(*log)-1]
	rec.Result = res
	rec.Return = t.Clock()
	rec.Class = Completed
	return res
}

// Ops returns every recorded operation, grouped by client. The checker
// does not care about inter-client order; timestamps carry it.
func (r *Recorder) Ops() []Op {
	var all []Op
	for _, log := range r.logs {
		all = append(all, log...)
	}
	return all
}
