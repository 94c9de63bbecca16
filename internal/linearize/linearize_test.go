package linearize

import (
	"math/rand"
	"testing"
	"time"

	"prepuc/internal/uc"
)

// co builds a completed op, io an in-flight one.
func co(client int, code, a0, a1, res, inv, ret uint64) Op {
	return Op{Client: client, Code: code, A0: a0, A1: a1, Result: res,
		Invoke: inv, Return: ret, Class: Completed}
}

func io(client int, code, a0, a1, inv uint64) Op {
	return Op{Client: client, Code: code, A0: a0, A1: a1,
		Invoke: inv, Return: ^uint64(0), Class: InFlight}
}

func mustOK(t *testing.T, r Result) {
	t.Helper()
	if !r.OK {
		t.Fatalf("expected pass, got: %s", r)
	}
}

func mustFail(t *testing.T, r Result) {
	t.Helper()
	if r.OK {
		t.Fatalf("expected fail, got: %s", r)
	}
}

func setState(kv ...uint64) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func TestSequentialSetHistoryPasses(t *testing.T) {
	ops := []Op{
		co(0, uc.OpInsert, 7, 70, 1, 0, 10),
		co(0, uc.OpGet, 7, 0, 70, 20, 30),
		co(0, uc.OpDelete, 7, 0, 1, 40, 50),
		co(0, uc.OpContains, 7, 0, 0, 60, 70),
	}
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(), Options{}))
}

func TestWrongResultRejected(t *testing.T) {
	ops := []Op{
		co(0, uc.OpInsert, 7, 70, 1, 0, 10),
		co(0, uc.OpGet, 7, 0, 71, 20, 30), // wrong value
	}
	mustFail(t, CheckEpoch(SetModel(), nil, ops, nil, Options{}))
}

// TestFailedPartitionNamed: a failure names the partition it happened in —
// the set model's key, a container model's name — in the strict and the
// buffered condition alike, though a passing check never builds a name.
func TestFailedPartitionNamed(t *testing.T) {
	wrongGet := []Op{
		co(0, uc.OpInsert, 3, 30, 1, 0, 10),
		co(0, uc.OpInsert, 17, 70, 1, 0, 10),
		co(0, uc.OpGet, 17, 0, 71, 20, 30),
	}
	for _, tc := range []struct {
		name string
		r    Result
		want string
	}{
		{"durable", CheckEpoch(SetModel(), nil, wrongGet, nil, Options{}), "key=17"},
		{"buffered", CheckEpoch(SetModel(), nil, wrongGet, setState(3, 30), Options{Buffered: true, Allowance: 1}), "key=17"},
		{"queue", CheckEpoch(QueueModel(), nil, []Op{co(0, uc.OpDequeue, 0, 0, 7, 0, 10)}, nil, Options{}), "queue"},
	} {
		if tc.r.OK || tc.r.FailedPartition != tc.want {
			t.Errorf("%s: %s, want a failure in %s", tc.name, tc.r, tc.want)
		}
	}
}

func TestConcurrentInsertGetAmbiguity(t *testing.T) {
	// Get overlaps the insert: both "not yet" and "already" responses are
	// legal, but only those two.
	for _, tc := range []struct {
		res uint64
		ok  bool
	}{{uc.NotFound, true}, {70, true}, {71, false}} {
		ops := []Op{
			co(0, uc.OpInsert, 7, 70, 1, 10, 30),
			co(1, uc.OpGet, 7, 0, tc.res, 15, 25),
		}
		r := CheckEpoch(SetModel(), nil, ops, nil, Options{})
		if r.OK != tc.ok {
			t.Errorf("concurrent Get -> %d: got %v, want %v", tc.res, r.OK, tc.ok)
		}
	}
}

func TestInFlightTakesEffectOrNot(t *testing.T) {
	ops := []Op{
		co(0, uc.OpInsert, 1, 11, 1, 0, 10),
		io(1, uc.OpInsert, 2, 22, 5),
	}
	// In-flight effect lost entirely: fine.
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11), Options{}))
	// In-flight effect survived: fine.
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11, 2, 22), Options{}))
	// In-flight op surfaced with a value it never wrote: not fine.
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(1, 11, 2, 99), Options{}))
	// The completed insert must survive (durable).
	mustFail(t, CheckEpoch(SetModel(), nil, ops, setState(2, 22), Options{}))
}

func TestBufferedAllowance(t *testing.T) {
	// Insert completed, then a Get of the same key observed it; a crash
	// lost both. The cut must sit before the insert. Only the insert
	// changed the state, so the loss is one completed update: legal iff the
	// allowance covers it. The lost Get spends nothing.
	ops := []Op{
		co(0, uc.OpInsert, 5, 50, 1, 0, 10),
		co(1, uc.OpGet, 5, 0, 50, 20, 30),
	}
	empty := setState()
	mustFail(t, CheckEpoch(SetModel(), nil, ops, empty, Options{}))
	mustFail(t, CheckEpoch(SetModel(), nil, ops, empty, Options{Buffered: true, Allowance: 0}))
	r := CheckEpoch(SetModel(), nil, ops, empty, Options{Buffered: true, Allowance: 1})
	mustOK(t, r)
	if r.Lost != 1 {
		t.Fatalf("lost = %d, want 1", r.Lost)
	}
}

func TestBufferedLossMustBeSuffixWithinPartition(t *testing.T) {
	// The insert's effect is present but a LATER completed delete of the
	// same key is missing from the recovered state — legal: cut after the
	// insert, delete lost. The reverse (insert lost, delete survived) has
	// no cut: rejected even with a generous allowance.
	ops := []Op{
		co(0, uc.OpInsert, 5, 50, 1, 0, 10),
		co(0, uc.OpDelete, 5, 0, 1, 20, 30),
	}
	mustOK(t, CheckEpoch(SetModel(), nil, ops, setState(5, 50), Options{Buffered: true, Allowance: 1}))
	// Recovered state says the delete happened but the insert didn't:
	// impossible in any prefix.
	ops2 := []Op{
		co(0, uc.OpInsert, 5, 50, 1, 0, 10),
		co(0, uc.OpInsert, 6, 60, 1, 20, 30),
	}
	mustFail(t, CheckEpoch(SetModel(), nil, ops2, setState(5, 51, 6, 60), Options{Buffered: true, Allowance: 8}))
}

// TestBufferedCutIsOneInstant pins that a buffered crash cut is one cut of
// the whole history, not one per partition. One worker completes inserts of
// k0, k1, k2 in that order; the recovered state holds k0 and k2 only. Each
// key alone is a prefix of its own sub-history, but no prefix of the
// worker's history has that state: keeping k2 puts the cut after its
// invocation, which is after k1 returned, so k1 must be kept too. No
// allowance excuses it.
func TestBufferedCutIsOneInstant(t *testing.T) {
	ops := []Op{
		co(0, uc.OpInsert, 0, 1, 1, 0, 10),
		co(0, uc.OpInsert, 1, 1, 1, 20, 30),
		co(0, uc.OpInsert, 2, 1, 1, 40, 50),
	}
	for allowance := 0; allowance <= len(ops); allowance++ {
		r := CheckEpoch(SetModel(), nil, ops, setState(0, 1, 2, 1), Options{Buffered: true, Allowance: allowance})
		mustFail(t, r)
		if r.Partitions != 3 {
			t.Fatalf("allowance %d: %d partitions, want 3", allowance, r.Partitions)
		}
	}
	// The prefixes themselves pass, each losing what follows it.
	for n := 0; n <= len(ops); n++ {
		kv := []uint64{}
		for k := 0; k < n; k++ {
			kv = append(kv, uint64(k), 1)
		}
		r := CheckEpoch(SetModel(), nil, ops, setState(kv...), Options{Buffered: true, Allowance: len(ops)})
		mustOK(t, r)
		if r.Lost != len(ops)-n {
			t.Fatalf("prefix of %d: lost %d, want %d", n, r.Lost, len(ops)-n)
		}
	}
}

func TestUntouchedKeyMustNotChange(t *testing.T) {
	ops := []Op{co(0, uc.OpInsert, 1, 11, 1, 0, 10)}
	init := setState(9, 90)
	mustFail(t, CheckEpoch(SetModel(), init, ops, setState(1, 11), Options{}))
	mustOK(t, CheckEpoch(SetModel(), init, ops, setState(1, 11, 9, 90), Options{}))
}

func TestQueueFIFOOrder(t *testing.T) {
	// Sequential enqueues 1 then 2; dequeues must return them in order.
	enq := []Op{
		co(0, uc.OpEnqueue, 1, 0, 1, 0, 10),
		co(0, uc.OpEnqueue, 2, 0, 1, 20, 30),
	}
	good := append(append([]Op{}, enq...),
		co(1, uc.OpDequeue, 0, 0, 1, 40, 50),
		co(1, uc.OpDequeue, 0, 0, 2, 60, 70))
	mustOK(t, CheckEpoch(QueueModel(), nil, good, []uint64{}, Options{}))

	// Concurrent enqueues may land in either order.
	conc := []Op{
		co(0, uc.OpEnqueue, 1, 0, 1, 0, 30),
		co(1, uc.OpEnqueue, 2, 0, 1, 5, 25),
		co(0, uc.OpDequeue, 0, 0, 2, 40, 50),
		co(0, uc.OpDequeue, 0, 0, 1, 60, 70),
	}
	mustOK(t, CheckEpoch(QueueModel(), nil, conc, []uint64{}, Options{}))
}

func TestStackLIFO(t *testing.T) {
	ops := []Op{
		co(0, uc.OpPush, 1, 0, 1, 0, 10),
		co(0, uc.OpPush, 2, 0, 1, 20, 30),
		co(0, uc.OpPop, 0, 0, 2, 40, 50),
		co(0, uc.OpPop, 0, 0, 1, 60, 70),
		co(0, uc.OpPop, 0, 0, uc.NotFound, 80, 90),
	}
	mustOK(t, CheckEpoch(StackModel(), nil, ops, []uint64{}, Options{}))
}

func TestPQueueMinOrder(t *testing.T) {
	ops := []Op{
		co(0, uc.OpEnqueue, 9, 0, 1, 0, 10),
		co(0, uc.OpEnqueue, 3, 0, 1, 20, 30),
		co(0, uc.OpDeleteMin, 0, 0, 3, 40, 50),
		co(0, uc.OpMin, 0, 0, 9, 60, 70),
	}
	mustOK(t, CheckEpoch(PQueueModel(), nil, ops, []uint64{9}, Options{}))
	bad := append(append([]Op{}, ops[:2]...), co(0, uc.OpDeleteMin, 0, 0, 9, 40, 50))
	mustFail(t, CheckEpoch(PQueueModel(), nil, bad, nil, Options{}))
}

func TestReplayBuildsPrefillState(t *testing.T) {
	ops := []uc.Op{
		{Code: uc.OpInsert, A0: 1, A1: 10},
		{Code: uc.OpInsert, A0: 2, A1: 20},
		{Code: uc.OpDelete, A0: 1},
	}
	s := Replay(SetModel(), nil, ops).(map[uint64]uint64)
	if len(s) != 1 || s[2] != 20 {
		t.Fatalf("replayed state = %v", s)
	}
}

// genConcurrentSetHistory synthesizes a valid concurrent history: a random
// sequential execution is computed first, then each operation's interval
// is widened around its linearization point without violating per-client
// program order.
func genConcurrentSetHistory(seed int64, clients, n int, keyRange uint64) []Op {
	rng := rand.New(rand.NewSource(seed))
	state := map[uint64]uint64{}
	lastReturn := make([]uint64, clients)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(clients)
		lin := uint64(i*16 + 8)
		if lin <= lastReturn[c] {
			lin = lastReturn[c] + 1
		}
		inv := lin - uint64(rng.Intn(24))
		if inv <= lastReturn[c] {
			inv = lastReturn[c] + 1
		}
		if inv > lin {
			inv = lin
		}
		ret := lin + uint64(rng.Intn(24))
		lastReturn[c] = ret

		k := rng.Uint64() % keyRange
		var op Op
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint64() % 1000
			res := uint64(1)
			if _, ok := state[k]; ok {
				res = 0
			}
			state[k] = v
			op = co(c, uc.OpInsert, k, v, res, inv, ret)
		case 1:
			res := uint64(0)
			if _, ok := state[k]; ok {
				res = 1
			}
			delete(state, k)
			op = co(c, uc.OpDelete, k, 0, res, inv, ret)
		case 2:
			res, ok := state[k]
			if !ok {
				res = uc.NotFound
			}
			op = co(c, uc.OpGet, k, 0, res, inv, ret)
		default:
			res := uint64(0)
			if _, ok := state[k]; ok {
				res = 1
			}
			op = co(c, uc.OpContains, k, 0, res, inv, ret)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestLargeMixedHistoryUnderBudget is the acceptance-criterion check: a
// 4-thread, 2k-op mixed set history must verify in well under 5 seconds
// (key partitioning keeps every WGL sub-search tiny).
func TestLargeMixedHistoryUnderBudget(t *testing.T) {
	ops := genConcurrentSetHistory(42, 4, 2000, 128)
	start := time.Now()
	r := CheckEpoch(SetModel(), nil, ops, nil, Options{})
	elapsed := time.Since(start)
	mustOK(t, r)
	if elapsed > 5*time.Second {
		t.Fatalf("2k-op check took %v, budget 5s", elapsed)
	}
	t.Logf("checked %d ops in %d partitions in %v", r.Ops, r.Partitions, elapsed)
}

func TestGeneratedHistoriesManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := genConcurrentSetHistory(seed, 4, 400, 64)
		if r := CheckEpoch(SetModel(), nil, ops, nil, Options{}); !r.OK {
			t.Fatalf("seed %d: %s", seed, r)
		}
	}
}

func TestRecorderClasses(t *testing.T) {
	r := NewRecorder(2)
	count := func(c Class) int {
		n := 0
		for _, op := range r.Ops() {
			if op.Class == c {
				n++
			}
		}
		return n
	}
	if got := count(Completed); got != 0 {
		t.Fatalf("fresh Completed = %d", got)
	}
	r.logs[0] = append(r.logs[0], io(0, uc.OpInsert, 1, 1, 5))
	r.logs[1] = append(r.logs[1], co(1, uc.OpGet, 1, 0, 1, 0, 10))
	if count(Completed) != 1 || count(InFlight) != 1 || len(r.Ops()) != 2 {
		t.Fatalf("counts wrong: completed=%d inflight=%d ops=%d",
			count(Completed), count(InFlight), len(r.Ops()))
	}
}
