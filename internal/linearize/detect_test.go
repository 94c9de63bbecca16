package linearize

// Tests for the detectable-recoverability classes: in-flight operations
// recovery resolved to a definite verdict (InFlightCommitted /
// InFlightNever). Positive cases pin down the intended semantics; mutation
// cases guard that the strengthened checker actually rejects double-applies
// and mis-reported verdicts — without them, a recovery bug that replays a
// "never applied" operation or fabricates a result would sail through.

import (
	"testing"

	"prepuc/internal/uc"
)

// cm builds an in-flight operation recovery resolved as committed with res.
func cm(client int, code, a0, a1, res, inv uint64) Op {
	return Op{Client: client, Code: code, A0: a0, A1: a1, Result: res,
		Invoke: inv, Return: ^uint64(0), Class: InFlightCommitted}
}

// nv builds an in-flight operation recovery resolved as never applied.
func nv(client int, code, a0, a1, inv uint64) Op {
	return Op{Client: client, Code: code, A0: a0, A1: a1,
		Invoke: inv, Return: ^uint64(0), Class: InFlightNever}
}

// A resolved-committed insert must appear in the recovered state, with the
// resolved result.
func TestInFlightCommittedMustTakeEffect(t *testing.T) {
	ops := []Op{cm(0, uc.OpInsert, 3, 33, 1, 5)}
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(3, 33), Options{}))
	// Effect missing from the recovered state → recovery lied.
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(), Options{}))
	// Unlike a plain Completed op, a loss allowance does not excuse it:
	// the descriptor verdict says the effect is inside the recovered state.
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(),
		Options{Buffered: true, Allowance: 8}))
}

// A resolved-committed operation's result must match what a linearization
// can produce: an insert resolved as "fresh" (1) over an existing key is a
// mis-reported verdict.
func TestInFlightCommittedWrongResult(t *testing.T) {
	init := setState(3, 30)
	ops := []Op{cm(0, uc.OpInsert, 3, 33, 1, 5)} // claims key 3 was absent
	mustFail(t, CheckEpoch(SetModel(), init, ops, setState(3, 33), Options{}))
	// With the consistent result (0: key present) it passes.
	ops[0].Result = 0
	mustOK(t, CheckEpoch(SetModel(), init, ops, setState(3, 33), Options{}))
}

// A resolved-never-applied operation must not take effect: its value
// surfacing in the recovered state is a double-apply in the making (the
// client was told to resubmit).
func TestInFlightNeverMustNotTakeEffect(t *testing.T) {
	ops := []Op{nv(0, uc.OpInsert, 3, 33, 5)}
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(), Options{}))
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(3, 33), Options{}))
	// Plain InFlight would have accepted either outcome.
	ops[0].Class = InFlight
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(3, 33), Options{}))
}

// The queue double-apply: recovery resolved an enqueue as committed, and
// then the resumed client's retry (or a buggy replay) enqueued it again.
func TestMutationQueueDoubleApply(t *testing.T) {
	ops := []Op{cm(0, uc.OpEnqueue, 7, 0, 1, 5)}
	mustOK(t, CheckEpoch(QueueModel(), nil, ops, []uint64{7}, Options{}))
	mustFail(t, CheckEpoch(QueueModel(), nil, ops, []uint64{7, 7}, Options{}))

	// Same violation observed through dequeues instead of the final state.
	ops2 := []Op{
		cm(0, uc.OpEnqueue, 7, 0, 1, 5),
		co(1, uc.OpDequeue, 0, 0, 7, 10, 20),
		co(1, uc.OpDequeue, 0, 0, 7, 30, 40),
	}
	mustFail(t, CheckEpoch(QueueModel(), nil, ops2, nil, Options{}))
	// A single dequeue claiming the committed enqueue is fine.
	mustOK(t, CheckEpoch(QueueModel(), nil, ops2[:2], nil, Options{}))
}

// In buffered mode the crash cut may lose completed operations, but never a
// resolved-committed one: the resolution horizon is the recovered state's
// own persisted tail. Nor may it lose an operation that precedes a kept one
// in real time: the insert at [0,10] returned before the committed insert
// was invoked at 12, so keeping the latter keeps the former.
func TestInFlightCommittedNotLosable(t *testing.T) {
	ops := []Op{
		co(0, uc.OpInsert, 1, 11, 1, 0, 10),
		cm(1, uc.OpInsert, 2, 22, 1, 12),
	}
	// Both effects present: fine.
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11, 2, 22),
		Options{Buffered: true, Allowance: 2}))
	// The completed insert cannot fall into the lost suffix behind the
	// committed one...
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(2, 22),
		Options{Buffered: true, Allowance: 2}))
	// ...and the resolved-committed one may not, whatever the allowance.
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11),
		Options{Buffered: true, Allowance: 8}))
	// Overlapping the committed insert, the completed one may be lost.
	ops[0].Return = 15
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(2, 22),
		Options{Buffered: true, Allowance: 2}))
}

// Mixed verdicts across one client's in-flight window: the committed prefix
// must be in the state, the never-applied suffix must not.
func TestResolvedWindowMixedVerdicts(t *testing.T) {
	ops := []Op{
		cm(0, uc.OpInsert, 1, 11, 1, 0),
		cm(0, uc.OpInsert, 2, 22, 1, 1),
		nv(0, uc.OpInsert, 3, 33, 2),
	}
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11, 2, 22), Options{}))
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11, 2, 22, 3, 33), Options{}))
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11), Options{}))
}

// FIFO ranking covers resolved-committed dequeues too: a deep prefilled
// queue drained by a client whose last dequeues were cut off but resolved.
func TestFIFORankWithCommittedDequeues(t *testing.T) {
	var pre []uc.Op
	var init any = QueueModel().Empty()
	for v := uint64(1); v <= 20; v++ {
		pre = append(pre, uc.Op{Code: uc.OpEnqueue, A0: v})
	}
	init = Replay(QueueModel(), init, pre)
	var ops []Op
	ts := uint64(0)
	for v := uint64(1); v <= 18; v++ {
		ops = append(ops, co(0, uc.OpDequeue, 0, 0, v, ts, ts+5))
		ts += 10
	}
	ops = append(ops, cm(1, uc.OpDequeue, 0, 0, 19, ts))
	mustOK(t, CheckEpoch(QueueModel(), init, ops, []uint64{20}, Options{}))
	// And the committed dequeue's resolved value must be consistent: 18
	// dequeues took 1..18, so the resolved one cannot have seen 5 again.
	ops[len(ops)-1].Result = 5
	mustFail(t, CheckEpoch(QueueModel(), init, ops, []uint64{19, 20}, Options{}))
}
